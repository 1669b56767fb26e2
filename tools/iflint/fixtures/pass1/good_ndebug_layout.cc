// Fixture: NDEBUG conditionals that leave every class layout alone.
#include <cstdint>
#include <functional>

namespace fixture {

#ifndef NDEBUG
inline int debugChecks = 0;   // OK: namespace scope, in no object
#endif

class DirectorySlice
{
  public:
#ifndef NDEBUG
    DirectorySlice() : active_(0) {}
    void verifyQuiescence() const;
    std::function<void(int)> makeChecker(int depth);
    static constexpr int kDebugDepth = 4;   // OK: static
    using DebugKey = std::uint64_t;
#endif
    bool
    quiescent() const
    {
#ifndef NDEBUG
        const int recount = 0;   // OK: a local in a function body
        struct Local { int n = recount; };
        static_cast<void>(Local{});
#endif
        return active_ == 0;
    }

  private:
    std::uint64_t active_ = 0;
};

} // namespace fixture
