/**
 * @file
 * Status and error reporting helpers in the style of gem5's logging.hh.
 *
 * fatal() is for user errors (bad configuration, invalid arguments);
 * panic() is for internal invariant violations that should never happen
 * regardless of user input. inform()/warn() report status without
 * terminating.
 *
 * Every message goes to stderr; logTagged() adds a component prefix
 * ("warn: [health] ..."). Counts belong in the session's metrics
 * registry and spans in the flight recorder (common/telemetry.hh),
 * not in log lines.
 */

#ifndef FLEXON_COMMON_LOGGING_HH
#define FLEXON_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

namespace flexon {

/** Severity of a log message. */
enum class LogLevel { Info, Warn, Fatal, Panic };

/**
 * Tagged variant of inform()/warn(): the component name lands in the
 * stderr prefix ("warn: [health] ..."). Fatal/Panic severities
 * terminate exactly like fatal()/panic().
 */
void logTagged(LogLevel level, const char *component, const char *fmt,
               ...) __attribute__((format(printf, 3, 4)));

namespace detail {

/** Format a printf-style message into a std::string. */
std::string vformat(const char *fmt, va_list ap);

/**
 * Emit a formatted message with a severity prefix to stderr.
 * `component` may be nullptr (untagged message).
 */
void emit(LogLevel level, const std::string &msg,
          const char *component = nullptr);

/** Emit a message and terminate via exit(1) (user error). */
[[noreturn]] void fatalImpl(const std::string &msg);

/** Emit a message and terminate via abort() (internal bug). */
[[noreturn]] void panicImpl(const std::string &msg);

} // namespace detail

/** Report a normal, informative status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report a suspicious-but-survivable condition. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Terminate due to a user error (exit code 1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Terminate due to an internal invariant violation (abort). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Assert an internal invariant; panics with location info on failure.
 * Active in all build types (simulator correctness beats a branch).
 */
#define flexon_assert(cond)                                               \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::flexon::panic("assertion '%s' failed at %s:%d", #cond,      \
                            __FILE__, __LINE__);                          \
        }                                                                 \
    } while (0)

/**
 * Debug-build-only invariant check: like flexon_assert, but compiled
 * out under NDEBUG. For conditions worth checking continuously in
 * development but too hot (or too statistical) for release builds.
 */
#ifdef NDEBUG
#define flexon_debug_assert(cond) ((void)0)
#else
#define flexon_debug_assert(cond) flexon_assert(cond)
#endif

} // namespace flexon

#endif // FLEXON_COMMON_LOGGING_HH
