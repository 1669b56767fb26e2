/**
 * @file
 * Miss status holding registers (Figure 6: 32 per cache).
 *
 * One MSHR tracks one outstanding block-granularity transaction of the
 * cache agent: a fetch (GetS/GetM) or an eviction writeback awaiting its
 * acknowledgment. Requests to the same block merge into one MSHR; waiters
 * are called back when the transaction completes.
 *
 * Storage is a fixed preallocated slot array (stable addresses, LIFO
 * free list) with an open-addressed block-address -> slot index on the
 * side, so lookup() — on the path of every fill, forward, and issued
 * load — is O(1) instead of a linear scan over the active list. A fetch
 * and a writeback MSHR may coexist for one block, so the index key tags
 * the kind into the block address's low alignment bits. The index is
 * checked against a scan over forEachLive() by tests/mem_test.cc.
 *
 * Waiter callbacks are typed {function, owner, argument} records
 * (FillWaiter, 24 bytes), which makes identical waiters comparable: N
 * same-block loads of one core collapse to a single chained record at
 * merge time instead of N equivalent closures. The records live in one
 * shared free-listed slab of intrusive chain nodes (not per-MSHR
 * vectors, whose capacities would each have to converge separately) —
 * so the steady state performs no heap allocation per transaction.
 */

#ifndef INVISIFENCE_MEM_MSHR_HH
#define INVISIFENCE_MEM_MSHR_HH

#include <cstdint>
#include <vector>

#include "coh/message.hh"
#include "mem/block.hh"
#include "sim/annotations.hh"
#include "sim/fill_waiter.hh"
#include "sim/flat_map.hh"
#include "sim/types.hh"

namespace invisifence {

/** Sentinel for an empty waiter chain / free-list end. */
constexpr std::uint32_t kNoWaiter = 0xffffffffu;

/** FIFO chain of waiter-slab indices (head runs first). */
struct WaiterChain
{
    std::uint32_t head = kNoWaiter;
    std::uint32_t tail = kNoWaiter;

    bool empty() const { return head == kNoWaiter; }
};

/** One outstanding transaction. */
struct Mshr
{
    enum class Kind { Fetch, Writeback };

    Addr blockAddr = 0;
    Kind kind = Kind::Fetch;

    // --- Fetch state ---
    bool wantWrite = false;      //!< some waiter needs write permission
    bool issuedWrite = false;    //!< the in-flight request is a GetM
    WaiterChain readWaiters;
    WaiterChain writeWaiters;

    // --- Writeback state: data retained until the home acknowledges so
    // the agent can still serve crossing forwards (eviction race). ---
    BlockData wbData{};
    bool wbDirty = false;
    MsgType wbType = MsgType::PutS;  //!< what to retransmit on timeout

    // --- Retry state (fault-tolerant mode only; see cache_agent.cc) ---
    std::uint32_t txnId = 0;        //!< tag of the in-flight request
    std::uint32_t retryAttempt = 0; //!< timeouts taken so far
};

/**
 * Fixed-capacity pool of MSHRs with O(1) block-address lookup and a
 * shared waiter-callback slab.
 */
class MshrFile
{
  public:
    /** @param capacity total slots (fetch + writeback) */
    explicit MshrFile(std::uint32_t capacity);

    /** MSHR of any kind for @p addr's block, or nullptr. */
    Mshr* lookup(Addr addr);

    /** MSHR of kind @p k for @p addr's block, or nullptr. */
    Mshr* lookup(Addr addr, Mshr::Kind k);

    /** Allocate a new MSHR; nullptr when the file is full. */
    Mshr* allocate(Addr addr, Mshr::Kind k);

    /**
     * Release @p m (must belong to this file). Freeing an MSHR whose
     * waiter chains are still populated would silently drop fill
     * callbacks — a protocol bug, not a cleanup detail — so it asserts
     * in debug builds and logs (once per file) in release before
     * recycling the orphaned nodes.
     */
    void free(Mshr* m);

    /**
     * Append @p cb to @p chain (slab node from the free list). A record
     * equal to one already chained is dropped: the wake action runs
     * once per fill regardless, so duplicates only cost slab nodes and
     * redundant calls.
     */
    void pushWaiter(WaiterChain& chain, const FillWaiter& cb);

    /**
     * Detach @p chain and return its head index (kNoWaiter when empty);
     * the chain on the MSHR is left empty, so callbacks that re-enter
     * and push new waiters extend a fresh chain. Walk the detached
     * chain with takeWaiterAndAdvance().
     */
    std::uint32_t takeWaiters(WaiterChain& chain);

    /**
     * Copy out node @p idx's callback, recycle the node, and advance
     * @p idx to the next chain entry. The copy is returned so the node
     * is reusable while the callback runs.
     */
    FillWaiter takeWaiterAndAdvance(std::uint32_t& idx);

    /** Apply @p fn to every live MSHR, in slot order (diagnostics:
     *  the liveness watchdog dumps in-flight transactions with this). */
    template <typename Fn>
    void
    forEachLive(Fn&& fn) const
    {
        for (std::uint32_t i = 0; i < capacity_; ++i) {
            if (live_[i])
                fn(slots_[i]);
        }
    }

    bool full() const { return count_ >= capacity_; }
    std::uint32_t inUse() const { return count_; }
    std::uint32_t capacity() const { return capacity_; }

    /** Waiter-slab node count (pool-sizing diagnostics and tests). */
    std::size_t waiterSlabSize() const { return waiterPool_.size(); }

    /**
     * Count a refused fetch as a full-MSHR stall once per episode.
     * @p noted is the requester's episode flag: set here, and cleared
     * by the requester once a fetch is accepted. Requesters call this
     * on every refused retry; the legacy loop retries every cycle while
     * fast-forward sleeps through them, and a surfaced statistic must
     * not depend on the tick-loop mode.
     */
    void
    noteFullStall(bool& noted)
    {
        if (!noted) {
            noted = true;
            ++statFullStalls;
        }
    }

    std::uint64_t statAllocations = 0;
    /** Full-MSHR stall episodes (noteFullStall). */
    std::uint64_t statFullStalls = 0;
    std::uint64_t statWaiterDedups = 0;

  private:
    struct WaiterNode
    {
        FillWaiter cb{};
        std::uint32_t next = kNoWaiter;
    };

    /** Index key: block address with the kind tagged into bit 0 (block
     *  alignment keeps the low 6 bits free). */
    static Addr
    indexKey(Addr blk, Mshr::Kind k)
    {
        return blk | (k == Mshr::Kind::Writeback ? 1u : 0u);
    }

    /** Release every node of @p chain back to the slab. */
    void releaseChain(WaiterChain& chain);
    /** Slab-growth slow path of pushWaiter (cold allocation frontier). */
    IF_COLD_FN std::uint32_t growWaiterPool();

    std::uint32_t capacity_;
    std::uint32_t count_ = 0;
    std::vector<Mshr> slots_;              //!< preallocated, stable
    std::vector<std::uint8_t> live_;       //!< slot occupancy flags
    std::vector<std::uint32_t> freeSlots_; //!< LIFO free list
    FlatAddrMap<std::uint32_t> index_;     //!< tagged block -> slot
    std::vector<WaiterNode> waiterPool_;   //!< shared callback slab
    std::uint32_t waiterFree_ = kNoWaiter;
    bool warnedLiveWaiters_ = false;
};

} // namespace invisifence

#endif // INVISIFENCE_MEM_MSHR_HH
