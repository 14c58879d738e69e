#include "common/debug.hh"

#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>

namespace flexon {
namespace debug {

namespace {

/** The enabled flag names, seeded from FLEXON_DEBUG on first use. */
struct Flags
{
    Flags()
    {
        if (const char *env = std::getenv("FLEXON_DEBUG")) {
            std::istringstream iss(env);
            std::string flag;
            while (std::getline(iss, flag, ','))
                if (!flag.empty())
                    names.insert(flag);
        }
        any = !names.empty();
    }

    std::mutex mutex;
    std::set<std::string, std::less<>> names; ///< guarded by mutex
    /** !names.empty(), kept current under mutex, read without it. */
    std::atomic<bool> any{false};
};

Flags &
flags()
{
    static Flags instance;
    return instance;
}

} // namespace

bool
enabled(std::string_view flag)
{
    Flags &f = flags();
    if (!f.any.load())
        return false;
    std::lock_guard<std::mutex> lock(f.mutex);
    return f.names.contains(flag) || f.names.contains("All");
}

void
enable(const std::string &flag)
{
    Flags &f = flags();
    std::lock_guard<std::mutex> lock(f.mutex);
    f.names.insert(flag);
    f.any = true;
}

void
disable(const std::string &flag)
{
    Flags &f = flags();
    std::lock_guard<std::mutex> lock(f.mutex);
    f.names.erase(flag);
    f.names.erase("All");
    f.any = !f.names.empty();
}

void
print(const char *flag, const char *fmt, ...)
{
    std::fprintf(stderr, "%s: ", flag);
    va_list ap;
    va_start(ap, fmt);
    std::vfprintf(stderr, fmt, ap);
    va_end(ap);
    std::fputc('\n', stderr);
}

} // namespace debug
} // namespace flexon
