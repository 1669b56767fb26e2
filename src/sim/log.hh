/**
 * @file
 * Minimal leveled logging with panic()/fatal() in the gem5 tradition.
 *
 * panic(): a simulator invariant broke — abort with a message.
 * fatal(): user/configuration error — exit(1) with a message.
 * Debug tracing compiles to nothing unless INVISIFENCE_TRACE is defined.
 *
 * The impl functions are variadic and format into a fixed stack buffer
 * (messages truncate past ~1 KiB): hot-path code calls IF_LOG
 * on rare-but-returning paths and IF_PANIC/IF_FATAL on noreturn ones,
 * and iflint pass 2 statically proves the steady-state call graph
 * allocation-free — a std::string-returning formatter on the argument
 * side of these macros would plant a reachable operator new at every
 * call site. strformat() (which does allocate) survives for cold
 * reporting paths such as the sweep JSON emitter.
 */

#ifndef INVISIFENCE_SIM_LOG_HH
#define INVISIFENCE_SIM_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace invisifence {

[[noreturn]] void panicImpl(const char* file, int line, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));
[[noreturn]] void fatalImpl(const char* file, int line, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));
void logImpl(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/** Printf-style formatting into a std::string (allocates; cold paths
 *  only — the logging macros above never call it). */
std::string strformat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace invisifence

#define IF_PANIC(...) \
    ::invisifence::panicImpl(__FILE__, __LINE__, __VA_ARGS__)
#define IF_FATAL(...) \
    ::invisifence::fatalImpl(__FILE__, __LINE__, __VA_ARGS__)
#define IF_LOG(...) ::invisifence::logImpl(__VA_ARGS__)

#ifdef INVISIFENCE_TRACE
#define IF_TRACE(...) \
    do { \
        std::fprintf(stderr, "trace: %s\n", \
                     ::invisifence::strformat(__VA_ARGS__).c_str()); \
    } while (0)
#else
#define IF_TRACE(...) do { } while (0)
#endif

#endif // INVISIFENCE_SIM_LOG_HH
