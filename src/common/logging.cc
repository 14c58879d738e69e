#include "common/logging.hh"

#include <cstdarg>
#include <vector>

namespace flexon {
namespace detail {

std::string
vformat(const char *fmt, va_list ap)
{
    va_list ap_copy;
    va_copy(ap_copy, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap_copy);
    va_end(ap_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

void
emit(LogLevel level, const std::string &msg, const char *component)
{
    const char *prefix = "";
    switch (level) {
      case LogLevel::Info: prefix = "info: "; break;
      case LogLevel::Warn: prefix = "warn: "; break;
      case LogLevel::Fatal: prefix = "fatal: "; break;
      case LogLevel::Panic: prefix = "panic: "; break;
    }
    if (component != nullptr && component[0] != '\0')
        std::fprintf(stderr, "%s[%s] %s\n", prefix, component,
                     msg.c_str());
    else
        std::fprintf(stderr, "%s%s\n", prefix, msg.c_str());
}

void
fatalImpl(const std::string &msg)
{
    emit(LogLevel::Fatal, msg);
    std::exit(1);
}

void
panicImpl(const std::string &msg)
{
    emit(LogLevel::Panic, msg);
    std::abort();
}

} // namespace detail

void
inform(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    detail::emit(LogLevel::Info, detail::vformat(fmt, ap));
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    detail::emit(LogLevel::Warn, detail::vformat(fmt, ap));
    va_end(ap);
}

void
logTagged(LogLevel level, const char *component, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    if (level == LogLevel::Fatal)
        detail::fatalImpl(msg);
    if (level == LogLevel::Panic)
        detail::panicImpl(msg);
    detail::emit(level, msg, component);
}

void
fatal(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    detail::fatalImpl(msg);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = detail::vformat(fmt, ap);
    va_end(ap);
    detail::panicImpl(msg);
}

} // namespace flexon
