/**
 * @file
 * Home directory slice of the blocking MESI directory protocol.
 *
 * Each node owns the directory slice (and memory bank) for the blocks whose
 * home it is (block-address interleaving). The slice serializes all
 * transactions for a block: one active transaction at a time, all other
 * requests queue FIFO. Data responses flow through the home. This provides
 * exactly the two properties the paper's consistency implementations need
 * from the memory system (Section 2.1): serialization of writes to each
 * address, and an acknowledgment when each store miss completes.
 *
 * Transient per-block state (busy flag, active transaction, waiting FIFO)
 * lives in one recycled map entry per block — a single hash lookup per
 * protocol step, and the entry's node plus its queue storage are pooled
 * and reused across transactions, so the steady state allocates nothing.
 */

#ifndef INVISIFENCE_COH_DIRECTORY_HH
#define INVISIFENCE_COH_DIRECTORY_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/annotations.hh"
#include "coh/home_map.hh"
#include "coh/message.hh"
#include "coh/network.hh"
#include "coh/sharer_set.hh"
#include "mem/functional_mem.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/recycling_map.hh"
#include "sim/ring_deque.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace invisifence {

/** Directory and memory timing parameters (Figure 6). */
struct DirectoryParams
{
    Cycle memLatency = 160;   //!< 40 ns at 4 GHz
    Cycle procLatency = 10;   //!< microcoded protocol controller occupancy

    /** @{ Fault tolerance (derived by the System; see AgentParams).
     *  When on, the slice deduplicates retried/duplicated requests by
     *  their (src, txnId) tag and recovers from owner-self requests
     *  (a dropped Put leaves the directory believing the requester
     *  still owns the block) instead of panicking. */
    bool faultTolerant = false;
    std::uint32_t dedupCapacity = 4096;  //!< completed-txn records kept
    /** @} */
};

/** Home node of a block under the legacy modulo interleave (tests). */
constexpr NodeId
homeOf(Addr addr, std::uint32_t num_nodes)
{
    return HomeMap(num_nodes).homeOf(addr);
}

/** One node's slice of the directory plus its local memory bank. */
class DirectorySlice
{
  public:
    DirectorySlice(NodeId node, const HomeMap& home_map, Network& net,
                   EventQueue& eq, FunctionalMemory& mem,
                   const DirectoryParams& params);

    /** Network sink: called for every message addressed to this slice. */
    void deliver(const Msg& msg);

    /**
     * True when no transaction is active and no requests queue (tests).
     * The counters consulted here are maintained incrementally across
     * every protocol step; debug builds recount them from scratch over
     * the transient-state map before trusting them.
     */
    bool
    quiescent() const
    {
#ifndef NDEBUG
        verifyQuiescence();
#endif
        return activeTxns_ == 0 && waitingTotal_ == 0 && busyBlocks_ == 0;
    }

    // Directory-visible state of a block, for tests and the checker.
    enum class DirState : std::uint8_t { Idle, Shared, Owned };
    struct EntryView
    {
        DirState state = DirState::Idle;
        SharerSet sharers{};
        NodeId owner = 0;
    };
    EntryView inspect(Addr block) const;

    /** @{ Warm-start utilities: size the per-block table once for the
     *  @p blocks entries the warm start will prime here, then set
     *  directory state directly. */
    void reserve(std::size_t blocks) { dir_.reserve(blocks); }
    void primeOwned(Addr block, NodeId owner);
    void primeShared(Addr block, const SharerSet& sharers);
    /** @} */

    /** Register this slice's statistics under @p prefix. */
    void registerStats(StatRegistry& reg, const std::string& prefix) const;

    std::uint64_t statGetS = 0;
    std::uint64_t statGetM = 0;
    std::uint64_t statWritebacks = 0;
    std::uint64_t statInvalidationsSent = 0;
    std::uint64_t statMemReads = 0;
    std::uint64_t statStaleWritebacks = 0;
    std::uint64_t statQueuedRequests = 0;
    /** Duplicated/retried requests squashed by the dedup record. */
    std::uint64_t statDupsSquashed = 0;

    /** Dump every in-flight transient (active transaction, queued
     *  requests) to @p out: the liveness watchdog's diagnostic. */
    void dumpTransients(std::FILE* out) const;

  private:
    struct DirEntry
    {
        DirState state = DirState::Idle;
        SharerSet sharers{};
        NodeId owner = 0;
        /**
         * txnId of the request that granted the current ownership
         * (fault-tolerant runs only; 0 = untagged/primed, check off).
         * A retried PutM/PutE from the owner whose tag predates this
         * grant is stale — the owner re-acquired the block after the
         * eviction being retried — and must NOT write memory or clear
         * ownership, even though owner == src looks valid.
         */
        std::uint32_t grantTxn = 0;
    };

    /** Active transaction on a block. */
    struct Txn
    {
        Msg req;
        bool needMem = false;
        bool memDone = false;
        std::uint32_t pendingAcks = 0;
        bool needOwnerData = false;
        bool ownerDataDone = false;
        BlockData data{};
        bool dataFromOwner = false;
        bool dataDirty = false;
    };

    /**
     * Transient home-side state of one block. Recycled wholesale
     * (including the waiting queue's storage); every field is reset on
     * reuse by resetHome().
     */
    struct BlockHome
    {
        bool busy = false;       //!< txn in flight or scheduled to start
        bool txnActive = false;  //!< txn holds a live transaction
        Txn txn{};
        RingDeque<Msg> waiting;  //!< FIFO of queued requests
    };

    DirEntry& entry(Addr block);

#ifndef NDEBUG
    /** From-scratch recount of the quiescence counters over home_. */
    void verifyQuiescence() const;
#endif

    /** Transient state for @p block, created (reset) on demand. */
    BlockHome& home(Addr block);
    /** Drop @p block's transient entry if it went fully idle. */
    void maybeRecycleHome(Addr block);

    void startNextIfQueued(Addr block);
    void startTxn(const Msg& req);
    void handleGetS(Txn& txn, DirEntry& e);
    void handleGetM(Txn& txn, DirEntry& e);
    void handlePut(const Msg& req, DirEntry& e);
    void handleResponse(const Msg& msg);
    void maybeFinish(Addr block);
    void finishGetS(Txn& txn, DirEntry& e);
    void finishGetM(Txn& txn, DirEntry& e);
    void beginMemRead(Addr block);

    void sendToAgent(NodeId dst, MsgType type, Addr block,
                     const BlockData* data, bool dirty, NodeId requester);

    /** @{ Completed-transaction dedup record (fault-tolerant mode).
     *  Key = (src << 32) | txnId; a bounded FIFO ring evicts the
     *  oldest record once dedupCapacity is reached. Map nodes recycle,
     *  so steady-state churn is allocation-free after the ring wraps. */
    static Addr
    dedupKey(NodeId src, std::uint32_t txn_id)
    {
        return (static_cast<Addr>(src) << 32) | txn_id;
    }
    bool wasCompleted(NodeId src, std::uint32_t txn_id) const;
    void recordCompleted(NodeId src, std::uint32_t txn_id);
    /** @} */

    NodeId node_;
    HomeMap homeMap_;
    Network& net_;
    EventQueue& eq_;
    FunctionalMemory& mem_;
    DirectoryParams params_;

    /**
     * Per-block directory state. Directory state is never erased, so
     * the flat table only inserts. A warm start sizes it once for the
     * blocks it primes (reserve); blocks first touched later grow it
     * by doubling, which warm-started runs absorb during warmup.
     */
    FlatAddrMap<DirEntry> dir_;
    RecyclingMap<Addr, BlockHome> home_;
    /** @{ Dedup record storage; empty unless faultTolerant. */
    RecyclingMap<Addr, std::uint8_t> dedup_;
    std::vector<Addr> dedupRing_;
    std::size_t dedupHead_ = 0;
    /** @} */
    std::uint64_t waitingTotal_ = 0;
    std::uint64_t activeTxns_ = 0;
    std::uint64_t busyBlocks_ = 0;
};

} // namespace invisifence

#endif // INVISIFENCE_COH_DIRECTORY_HH
