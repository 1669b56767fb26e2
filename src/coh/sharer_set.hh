/**
 * @file
 * Fixed-capacity sharer bitset for directory entries.
 *
 * The directory used to track sharers in a bare std::uint32_t with
 * `1u << n` arithmetic — undefined behavior and silent truncation the
 * moment a node id reaches 32. SharerSet is the drop-in replacement:
 * an inline multi-word bitset sized for the largest machine the
 * simulator builds (256 nodes), with bounds-checked mutation, popcount
 * and ascending-order iteration helpers. It is trivially copyable and
 * value-initializes to empty, so it slots into FlatAddrMap lanes
 * exactly like the old integer did.
 */

#ifndef INVISIFENCE_COH_SHARER_SET_HH
#define INVISIFENCE_COH_SHARER_SET_HH

#include <bit>
#include "sim/annotations.hh"
#include <cstdint>

#include "sim/log.hh"
#include "sim/types.hh"

namespace invisifence {

/** Set of sharer node ids, capacity SharerSet::kMaxNodes. */
class SharerSet
{
  public:
    /** Largest node id + 1 the simulator supports anywhere. */
    static constexpr std::uint32_t kMaxNodes = 256;

    constexpr SharerSet() = default;

    /** The singleton set {n}. */
    static SharerSet
    single(NodeId n)
    {
        SharerSet s;
        s.set(n);
        return s;
    }

    /** The set {0, 1, ..., n-1} (the "everyone shares" warm mask). */
    static SharerSet
    firstN(std::uint32_t n)
    {
        checkNode(n == 0 ? 0 : n - 1);
        SharerSet s;
        for (std::uint32_t w = 0; n > 0; ++w) {
            const std::uint32_t take = n < 64 ? n : 64;
            s.w_[w] = take == 64 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << take) - 1;
            n -= take;
        }
        return s;
    }

    /** Add node @p n (fatal when n >= kMaxNodes, in every build). */
    void
    set(NodeId n)
    {
        checkNode(n);
        w_[n >> 6] |= std::uint64_t{1} << (n & 63);
    }

    /** Remove node @p n (fatal when n >= kMaxNodes, in every build). */
    void
    clear(NodeId n)
    {
        checkNode(n);
        w_[n >> 6] &= ~(std::uint64_t{1} << (n & 63));
    }

    /** True when node @p n is in the set. */
    bool
    test(NodeId n) const
    {
        IF_DBG_ASSERT(n < kMaxNodes);
        return (w_[n >> 6] >> (n & 63)) & 1;
    }

    /** Number of sharers. */
    std::uint32_t
    count() const
    {
        std::uint32_t c = 0;
        for (const std::uint64_t w : w_)
            c += static_cast<std::uint32_t>(std::popcount(w));
        return c;
    }

    bool
    any() const
    {
        for (const std::uint64_t w : w_) {
            if (w != 0)
                return true;
        }
        return false;
    }

    bool none() const { return !any(); }

    /** Remove every node. */
    void
    reset()
    {
        for (std::uint64_t& w : w_)
            w = 0;
    }

    /**
     * Call @p fn(NodeId) for every member in ascending order. The
     * directory's invalidation fan-out iterates through here, and
     * ascending order keeps its message emission order — and therefore
     * the committed goldens — identical to the old 0..N-1 mask scan.
     */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::uint32_t wi = 0; wi < kWords; ++wi) {
            std::uint64_t w = w_[wi];
            while (w != 0) {
                const auto bit =
                    static_cast<std::uint32_t>(std::countr_zero(w));
                fn(static_cast<NodeId>(wi * 64 + bit));
                w &= w - 1;
            }
        }
    }

    bool operator==(const SharerSet&) const = default;

  private:
    static void
    checkNode(NodeId n)
    {
        if (n >= kMaxNodes)
            IF_FATAL("sharer node %u exceeds SharerSet capacity %u", n,
                     kMaxNodes);
    }

    static constexpr std::uint32_t kWords = kMaxNodes / 64;
    std::uint64_t w_[kWords] = {};
};

} // namespace invisifence

#endif // INVISIFENCE_COH_SHARER_SET_HH
