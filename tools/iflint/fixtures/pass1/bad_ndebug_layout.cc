// Fixture: must trip ndebug-layout (and only ndebug-layout).
#include <cstdint>
#include <unordered_map>

namespace fixture {

using Addr = std::uint64_t;
struct DirEntry { int state = 0; };

class DirectorySlice
{
#ifndef NDEBUG
    void flushOracle() const;        // OK: functions change no layout
    mutable std::unordered_map<Addr, DirEntry> dir_;   // BAD
    mutable Addr lastKey_ = ~Addr{0};                   // BAD
#else
    std::unordered_map<Addr, DirEntry> dir_;           // BAD (else branch)
#endif
};

struct Hooks
{
#if defined(NDEBUG) && !defined(FIXTURE_TRACE)
    void (*onFree)(int);                               // BAD: fn pointer
    std::uint64_t releaseOnly{0};                      // BAD: brace init
#endif
};

} // namespace fixture
