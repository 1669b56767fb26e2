/**
 * @file
 * The two store-buffer organizations of Figure 2 / Figure 6.
 *
 * FifoStoreBuffer: word-granularity, age-ordered, CAM-searched for load
 * forwarding. Used by conventional SC and TSO (8-byte x 64 entries). Its
 * capacity limit is the source of "SB full" stalls; its in-order drain and
 * full-drain requirement at atomics/fences produce "SB drain" stalls.
 *
 * CoalescingStoreBuffer: block-granularity, unordered, sized to the number
 * of outstanding store misses (8 entries for single-checkpoint
 * InvisiFence, 32 with two checkpoints). Holds retired-but-uncommitted
 * store data until the block is fillable in the L1. Never searched by
 * external coherence requests and never supplies data to other processors.
 * InvisiFence adds flash-invalidation of speculative entries (abort) and
 * forbids coalescing between speculative and non-speculative stores, and
 * between stores of different checkpoints, to one block (Section 3.1).
 */

#ifndef INVISIFENCE_MEM_STORE_BUFFER_HH
#define INVISIFENCE_MEM_STORE_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/block.hh"
#include "sim/function_ref.hh"
#include "sim/ring_deque.hh"
#include "sim/types.hh"

namespace invisifence {

/** Context label for non-speculative coalescing-SB entries. */
constexpr std::uint32_t kNonSpecCtx = 0xffffffffu;

/** Word-granularity FIFO store buffer with age-ordered forwarding. */
class FifoStoreBuffer
{
  public:
    explicit FifoStoreBuffer(std::uint32_t capacity) : capacity_(capacity)
    {
        // The capacity is architectural (a fixed SRAM): claim it up
        // front so filling the buffer never allocates mid-run.
        entries_.reserve(capacity);
    }

    struct Entry
    {
        Addr addr = 0;                //!< word-aligned
        std::uint64_t data = 0;
        std::uint32_t size = kWordBytes;
        InstSeq seq = 0;
        bool issued = false;          //!< drain write-permission requested
    };

    /** True when another store can be accepted. */
    bool hasSpace() const { return entries_.size() < capacity_; }
    bool empty() const { return entries_.empty(); }
    bool full() const { return !hasSpace(); }
    std::size_t size() const { return entries_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    /** Append a retired store; caller must check hasSpace(). */
    void push(Addr addr, std::uint64_t data, InstSeq seq);

    /** Oldest entry (drain candidate). Only valid when !empty(). */
    Entry& front() { return entries_.front(); }
    const Entry& front() const { return entries_.front(); }

    /** Remove the oldest entry after it has drained into the cache. */
    void popFront() { entries_.pop_front(); }

    /**
     * Age-ordered CAM search: value of the youngest store covering the
     * word at @p addr, if any (store-to-load forwarding).
     */
    std::optional<std::uint64_t> forward(Addr addr) const;

    /** True when any buffered store targets @p addr's block. */
    bool containsBlock(Addr addr) const;

    /** Raw age-ordered entries (drain/prefetch logic and tests). */
    RingDeque<Entry>& entries() { return entries_; }
    const RingDeque<Entry>& entries() const { return entries_; }

  private:
    std::uint32_t capacity_;
    /** Ring, not deque: steady push/pop churns no heap chunks. */
    RingDeque<Entry> entries_;
};

/** Block-granularity unordered coalescing store buffer. */
class CoalescingStoreBuffer
{
  public:
    explicit CoalescingStoreBuffer(std::uint32_t capacity)
        : capacity_(capacity)
    {}

    struct Entry
    {
        Addr blockAddr = 0;
        MaskedBlock data{};
        bool speculative = false;
        std::uint32_t ctx = kNonSpecCtx;  //!< owning checkpoint context
        bool fillRequested = false;       //!< GetM issued for this block
        bool held = false;     //!< must wait for older checkpoint's commit
        /** Full-MSHR episode flag of this entry's write fetch
         *  (MshrFile::noteFullStall). */
        bool fullStallNoted = false;

        /** Dormant while the write fetch this entry issued is in
         *  flight: a non-writable block can only become writable
         *  through CacheAgent::installL1, whose onL1Install hook
         *  clears this, so skipping the per-tick L1/L2 probe until
         *  then is exact (the probe resumes the same tick writability
         *  can first be observed). */
        bool waitingFill = false;
    };

    enum class StoreResult
    {
        Merged,        //!< coalesced into an existing compatible entry
        NewEntry,      //!< allocated a fresh entry
        Full,          //!< no space and no compatible entry: stall
    };

    /**
     * Buffer a retired store of @p size bytes at @p addr.
     *
     * Coalesces only into an entry of the same block with identical
     * (speculative, ctx) labels; otherwise allocates.
     */
    StoreResult store(Addr addr, std::uint32_t size, std::uint64_t value,
                      bool speculative, std::uint32_t ctx);

    /**
     * Combined view of all buffered bytes for @p addr's block, oldest
     * entry first so younger stores overwrite older ones.
     */
    MaskedBlock gatherBlock(Addr addr) const;

    /** Youngest buffered value fully covering the word at @p addr. */
    std::optional<std::uint64_t> forward(Addr addr) const;

    /** True when any entry targets @p addr's block — the emptiness
     *  probe retirement rules need, without gatherBlock's merges. */
    bool containsBlock(Addr addr) const;

    /** Flash-invalidate every entry matching @p pred (single cycle). */
    void flashInvalidate(FunctionRef<bool(const Entry&)> pred);

    /** Flash-invalidate all speculative entries (abort of all contexts). */
    void flashInvalidateSpeculative();

    bool empty() const { return entries_.empty(); }
    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }
    std::uint32_t capacity() const { return capacity_; }

    /** True when no entry carries context label @p ctx. */
    bool emptyOfCtx(std::uint32_t ctx) const;

    std::vector<Entry>& entries() { return entries_; }
    const std::vector<Entry>& entries() const { return entries_; }

  private:
    std::uint32_t capacity_;
    std::vector<Entry> entries_;   //!< insertion order == age order
};

} // namespace invisifence

#endif // INVISIFENCE_MEM_STORE_BUFFER_HH
