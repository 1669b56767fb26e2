/**
 * @file
 * Small fully-associative victim cache (Figure 6: 16 entries next to L1).
 *
 * Holds non-speculative blocks evicted from the L1 for capacity/conflict
 * reasons so a quick re-reference refills without an L2 round trip.
 * Speculative blocks are never placed here: they must not escape the L1
 * (Section 3.2, violation detection), so their evictions force a commit
 * or abort instead.
 *
 * The agent's L2 is inclusive and authoritative for every block the
 * victim cache holds, and a victim-cache hit refills the L1 from the L2
 * line, so the model keeps only the tag lane: the block addresses in
 * age order, scanned contiguously. What it decides is latency (a hit
 * costs victimLatency instead of l2Latency), never data.
 */

#ifndef INVISIFENCE_MEM_VICTIM_CACHE_HH
#define INVISIFENCE_MEM_VICTIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace invisifence {

/** FIFO-replacement fully-associative victim buffer (tags only). */
class VictimCache
{
  public:
    explicit VictimCache(std::uint32_t entries) : capacity_(entries)
    {
        // Preallocated: nothing allocates after construction.
        tags_.reserve(entries);
    }

    /** Insert @p block_addr as the youngest entry. A re-inserted block
     *  replaces its previous incarnation; when full, the oldest entry
     *  is dropped (clean by construction: the L2 holds its data). */
    void insert(Addr block_addr);

    /** Find and remove the entry for @p addr; true when present. */
    bool extract(Addr addr);

    /** Presence probe. */
    bool
    contains(Addr addr) const
    {
        return indexOf(addr) >= 0;
    }

    /** Remove the entry for @p addr if present (invalidation). */
    bool invalidate(Addr addr);

    std::size_t size() const { return tags_.size(); }
    std::uint32_t capacity() const { return capacity_; }

  private:
    /** Age position of @p addr's entry (oldest first), or -1. */
    std::ptrdiff_t indexOf(Addr addr) const;
    void eraseAt(std::size_t i);

    std::uint32_t capacity_;
    std::vector<Addr> tags_;   //!< block addresses, oldest first
};

} // namespace invisifence

#endif // INVISIFENCE_MEM_VICTIM_CACHE_HH
