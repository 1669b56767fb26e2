#include "sim/log.hh"

#include <cstdarg>
#include <vector>

namespace invisifence {

namespace {

/** Fixed-size formatting shared by the leveled sinks: no allocation,
 *  so the logging layer stays out of iflint pass 2's reachable-alloc
 *  set even when called from hot-path code. Long messages truncate. */
void
vformatBuf(char* buf, std::size_t cap, const char* fmt, va_list ap)
{
    const int n = std::vsnprintf(buf, cap, fmt, ap);
    if (n < 0 && cap > 0)
        buf[0] = '\0';
}

} // namespace

std::string
strformat(const char* fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    if (n <= 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<std::size_t>(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<std::size_t>(n));
}

[[noreturn]] void
panicImpl(const char* file, int line, const char* fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    vformatBuf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "panic: %s (%s:%d)\n", buf, file, line);
    std::abort();
}

[[noreturn]] void
fatalImpl(const char* file, int line, const char* fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    vformatBuf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", buf, file, line);
    std::exit(1);
}

void
logImpl(const char* fmt, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, fmt);
    vformatBuf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "log: %s\n", buf);
}

} // namespace invisifence

