/**
 * @file
 * gem5-style debug tracing: named flags enabled at runtime through
 * the FLEXON_DEBUG environment variable (comma-separated, e.g.
 * `FLEXON_DEBUG=Simulator,Folded`), and a DPRINTF-like macro that
 * compiles to a flag check plus a printf.
 *
 * Tracing is for humans chasing a bug, not for programs: output goes
 * to stderr and the format is free-form. Hot paths guard with
 * FLEXON_DPRINTF's flag check, which reads one atomic boolean and
 * returns while no flag is set; only with a flag set does it lock and
 * look the name up.
 */

#ifndef FLEXON_COMMON_DEBUG_HH
#define FLEXON_COMMON_DEBUG_HH

#include <string>
#include <string_view>

namespace flexon {
namespace debug {

/**
 * Is a debug flag enabled? Flags come from FLEXON_DEBUG (read once,
 * lazily) plus any flags force-enabled through enable(). The special
 * value `All` enables everything.
 */
bool enabled(std::string_view flag);

/** Force-enable / disable a flag at runtime (tests, tools). */
void enable(const std::string &flag);
void disable(const std::string &flag);

/** Printf-style trace line: "<flag>: <message>" on stderr. */
void print(const char *flag, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace debug

/**
 * Trace-if-enabled. The flag is a bare identifier, e.g.
 * FLEXON_DPRINTF(Simulator, "step %llu", step).
 */
#define FLEXON_DPRINTF(flag, ...)                                     \
    do {                                                              \
        if (::flexon::debug::enabled(#flag))                          \
            ::flexon::debug::print(#flag, __VA_ARGS__);               \
    } while (0)

} // namespace flexon

#endif // FLEXON_COMMON_DEBUG_HH
