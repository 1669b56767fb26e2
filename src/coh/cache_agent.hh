/**
 * @file
 * Per-node cache agent: private inclusive L1D + L2 pair, victim cache,
 * MSHRs, and the node's side of the directory protocol.
 *
 * The agent is the coherence endpoint for its node. The L2 line holds the
 * node's global MESI state; the L1 holds presence, an L1-vs-L2 dirty bit,
 * block data, and InvisiFence's speculatively-read/written bits. Blocks
 * with speculative bits never leave the L1 (their eviction forces the
 * listener to resolve the speculation), so external-request conflict
 * checks against L1 bits detect every ordering violation (Section 3.2).
 *
 * Protocol steps that need both levels of one block resolve them once
 * into a BlockView and pass that view (or a generation-stamped handle)
 * down, instead of re-running the tag scan at every layer.
 */

#ifndef INVISIFENCE_COH_CACHE_AGENT_HH
#define INVISIFENCE_COH_CACHE_AGENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coh/directory.hh"
#include "coh/listener.hh"
#include "coh/message.hh"
#include "coh/network.hh"
#include "mem/cache_array.hh"
#include "mem/mshr.hh"
#include "mem/victim_cache.hh"
#include "sim/event_queue.hh"
#include "sim/ring_deque.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace invisifence {

/** Cache hierarchy parameters (Figure 6 defaults). */
struct AgentParams
{
    std::uint64_t l1Size = 64 * 1024;
    std::uint32_t l1Ways = 2;
    Cycle l1Latency = 2;          //!< load-to-use
    std::uint64_t l2Size = 2 * 1024 * 1024;
    std::uint32_t l2Ways = 8;
    Cycle l2Latency = 25;
    std::uint32_t victimEntries = 16;
    Cycle victimLatency = 3;
    std::uint32_t mshrs = 32;

    /** @{ Fault-tolerance knobs (see sim/fault.hh). A nonzero
     *  retryTimeout arms a retransmit deadline per outstanding request
     *  (exponential backoff, bounded attempts). faultTolerant is
     *  derived by the System — set whenever faults or retries are
     *  enabled — and turns on transaction-id tagging plus the tolerant
     *  receive paths (orphan acks, owner-self forwards). Both default
     *  off: the clean-run protocol paths are byte-identical. */
    Cycle retryTimeout = 0;          //!< retransmit deadline, 0 = off
    std::uint32_t retryMax = 10;     //!< timeouts before declaring loss
    Cycle retryBackoffCap = 65536;   //!< ceiling on the backoff delay
    bool faultTolerant = false;
    /** @} */
};

/** Coherence endpoint and two-level private cache hierarchy of one node. */
class CacheAgent
{
  public:
    CacheAgent(NodeId node, const HomeMap& home_map, Network& net,
               EventQueue& eq, const AgentParams& params);

    void setListener(CoherenceListener* l) { listener_ = l; }

    /** Where a block currently lives, for hit/miss latency accounting. */
    enum class Where { L1, Local, Remote };
    Where probe(Addr addr) const;

    /**
     * Both levels of one block, resolved once per protocol step.
     * A view is a pair of lightweight Line accessors — reads through it
     * always see the current line contents; it must not be held across
     * simulated time (take a Handle for that).
     */
    struct BlockView
    {
        CacheArray::Line l1;   //!< null when not L1-resident
        CacheArray::Line l2;   //!< null when not L2-resident

        /** Same predicate as l1Writable(): present + writable state. */
        bool
        writable() const
        {
            return l1 && l2 && isWritable(l2.state());
        }
    };

    /**
     * Resolve @p addr's block for the write/routing paths. The L2 tag
     * scan runs only when the L1 holds the block (writability needs
     * both; every other consumer of the view checks `l1` first), so
     * the common pending-miss probe touches one tag lane, not two.
     */
    BlockView
    resolveBlock(Addr addr)
    {
        BlockView v;
        v.l1 = l1_.lookup(addr);
        if (v.l1)
            v.l2 = l2_.lookup(addr);
        return v;
    }

    /** @{ Presence and permission probes (L2 state is authoritative). */
    bool l1Readable(Addr addr) const;
    bool l1Writable(Addr addr) const;
    bool l1Dirty(Addr addr) const;
    /** @} */

    /**
     * Combined l1Readable + readWordL1: one resolution. True and the
     * word stored to @p value when the block is readable in the L1.
     */
    bool tryReadL1(Addr addr, std::uint64_t* value) const;

    /**
     * Bring the block into the L1 with (at least) the requested
     * permission; @p cb runs when it is usable. Returns false when the
     * fetch MSHRs are exhausted (caller retries later; see the
     * full-stall episode accounting in Core/SpeculativeImpl). @p cb is
     * a typed {fn, owner, arg} record (FillWaiter) stored inline in
     * the MSHR / pooled event, never on the heap; omit it for pure
     * prefetch/permission requests (a null callback is not queued at
     * all, so retry-heavy drain loops don't grow the waiter lists).
     * Identical records merge: same-block requests carrying the same
     * record share one waiter node.
     */
    bool request(Addr addr, bool write, FillWaiter cb = {});

    /** True when a fetch for this block is already outstanding. */
    bool fetchOutstanding(Addr addr) const;

    /** @{ L1 data access; block must be present (and writable to write). */
    std::uint64_t readWordL1(Addr addr) const;
    void writeWordL1(Addr addr, std::uint64_t value, bool speculative,
                     std::uint32_t ctx);
    void writeWordL1(const BlockView& view, Addr addr,
                     std::uint64_t value, bool speculative,
                     std::uint32_t ctx);
    void writeMaskedL1(Addr block_addr, const MaskedBlock& data,
                       bool speculative, std::uint32_t ctx);
    void writeMaskedL1(const BlockView& view, const MaskedBlock& data,
                       bool speculative, std::uint32_t ctx);
    /** @} */

    /** Mark the block speculatively read in context @p ctx. */
    void setSpecRead(Addr addr, std::uint32_t ctx);

    /**
     * Combined L1 presence probe + setSpecRead: one resolution. False (and no
     * marking) when the block is not L1-resident.
     */
    bool markSpecReadIfPresent(Addr addr, std::uint32_t ctx);

    /**
     * Pull a locally-resident (L2/VC) block back into the L1 immediately.
     * Used when a retiring speculative load must mark its block but the
     * line slipped into the victim cache between execute and retire.
     * Returns false when the block is not locally resident.
     */
    bool tryInstantL1Install(Addr addr);

    /**
     * While blocked, all arriving external requests are parked on the
     * deferred queue (ASO's commit drain disables the cache's external
     * interface). serveDeferred() runs automatically on unblock.
     */
    void setExternalBlocked(bool blocked);
    bool externalBlocked() const { return externalBlocked_; }

    /**
     * Clean-writeback: copy the L1's dirty data down to the L2 so the
     * pre-speculative value survives an abort (Section 3.2, speculative
     * stores). @p cb runs when the copy completes. Returns false when the
     * block is not dirty in L1 (no cleaning needed; @p cb not called).
     */
    bool cleanWriteback(Addr addr, FillWaiter cb);

    /** Commit context @p ctx: flash-clear its speculative bits. */
    void flashCommit(std::uint32_t ctx);

    /**
     * Abort context @p ctx: flash-invalidate speculatively-written blocks
     * and clear the context's bits (Figure 3 conditional clear).
     */
    void flashAbort(std::uint32_t ctx);

    /** O(1) count of L1 lines holding any speculative bit. */
    std::uint32_t specFootprint() const { return specLines_; }

    /**
     * Warm-start utility: install a block directly into the L2 with the
     * given state (the matching directory entry must be primed too).
     * Models the warm caches of the paper's sampling methodology.
     */
    void primeBlock(Addr block, CoherenceState state,
                    const BlockData& data);

    /** Network sink for this node's agent unit. */
    void deliver(const Msg& msg);

    /** Re-process external requests parked by a Defer verdict. */
    void serveDeferred();
    bool hasDeferred() const { return !deferred_.empty(); }

    /** @{ Test access. */
    CacheArray& l1() { return l1_; }
    CacheArray& l2() { return l2_; }
    VictimCache& victimCache() { return vc_; }
    MshrFile& mshrs() { return mshrs_; }
    const MshrFile& mshrs() const { return mshrs_; }
    NodeId node() const { return node_; }
    const AgentParams& params() const { return params_; }
    /** @} */

    /** Register this agent's (and its MSHR file's) statistics. */
    void registerStats(StatRegistry& reg, const std::string& prefix) const;

    /** @{ L1 installs by an L2/VC-local and by a network fill. Both
     *  count the install, not the arrival: a fill refused by a
     *  speculative overflow counts once, when it finally installs. */
    std::uint64_t statL1FillsLocal = 0;
    std::uint64_t statL1FillsRemote = 0;
    /** @} */
    std::uint64_t statUpgrades = 0;
    std::uint64_t statExternalServed = 0;
    std::uint64_t statExternalDeferred = 0;
    std::uint64_t statCleanWritebacks = 0;
    std::uint64_t statForcedSpecEvictions = 0;
    /** @{ Speculative overflow (Section 4.1). A fill refused because
     *  every candidate L1 way is speculative waits for the speculation
     *  to commit, retrying every kOverflowRetryDelay cycles.
     *  deferred_fills counts refused attempts: the first refusal and
     *  every refused retry. deferred_fill_episodes counts deferrals: a
     *  waiter's first refusal only. */
    std::uint64_t statDeferredFills = 0;
    std::uint64_t statDeferredFillEpisodes = 0;
    /** @} */
    std::uint64_t statL2Evictions = 0;

    /** @{ Fault-tolerance counters (all zero with the knobs off). */
    std::uint64_t statRetries = 0;          //!< requests retransmitted
    std::uint64_t statOrphanWbAcks = 0;     //!< acks with no wb MSHR
    std::uint64_t statWbAbandoned = 0;      //!< writebacks made moot
    std::uint64_t statRetryBackoffMax = 0;  //!< largest backoff armed
    /** @} */

  private:
    void handleFill(const Msg& msg);
    void handleExternal(const Msg& msg);
    /**
     * Serve an external request. @p l1h is the generation-stamped
     * handle of the L1 line handleExternal resolved (null when absent);
     * revalidated in O(1) — conflict resolution may have invalidated
     * the frame between resolution and service.
     */
    void serveExternal(const Msg& msg, CacheArray::Handle l1h);
    void handleWbAck(const Msg& msg);

    /** Install/update a block in the L2 (may evict; sends writebacks). */
    CacheArray::Line installL2(Addr block, const BlockData& data,
                               CoherenceState state);
    /**
     * Copy the L2-resident block @p l2line into the L1 (may evict to
     * the VC). Returns a null Line when every candidate way holds
     * speculative state and the listener cannot commit yet; the caller
     * defers and retries while the store buffer drains (Section 4.1,
     * cache overflow).
     */
    CacheArray::Line installL1(Addr block, CacheArray::Line l2line);

    /** @{ Overflow retry: a refused fill tries again every 10 cycles;
     *  attempt 200 (and any later one) hard-aborts the speculation
     *  before retrying, which bounds the wait. */
    static constexpr Cycle kOverflowRetryDelay = 10;
    static constexpr std::uint32_t kOverflowRetryBound = 200;
    /** @} */
    /** Count refused attempt @p attempt; hard-abort at the bound. */
    void noteRefusedFill(Addr block, std::uint32_t attempt);
    /**
     * L1 plus L2 CacheArray::mutations(). A refusal rests on four
     * facts: the block is in the L2, absent from the L1, its L1 set has
     * no non-speculative way, and (network fill) its fetch MSHR is
     * live. Each can change only with a frame install or invalidation
     * or a flash op (an MSHR is freed only by an L1 install), so while
     * this stamp stands still, so do they.
     */
    std::uint64_t
    fillStamp() const
    {
        return l1_.mutations() + l2_.mutations();
    }
    /**
     * Replay @p rec's last refusal without probing the caches when
     * fillStamp() still equals its refusedAt: count the forced
     * eviction, ask the listener again, and count the refusal. True
     * when refused again; false when the stamp moved or the listener
     * committed, and the caller runs the probing attempt.
     */
    bool replayRefusal(const RetryRecord& rec);
    /** Stamp refused @p rec and count its attempt; the retry delay. */
    Cycle carryRefusal(RetryRecord& rec) const;
#ifndef NDEBUG
    /** Fresh probe of the facts a replay of @p rec relies on. */
    bool refusalStands(const RetryRecord& rec);
#endif
    /**
     * One attempt at finishing a network fill; true when the L1 refused
     * it (speculative overflow) and it must be retried.
     */
    bool finishFill(Addr block, std::uint32_t attempt);
    /** One attempt at an L2/VC-local fill (same deferral rules). */
    bool completeLocalFill(Addr block, FillWaiter cb,
                           std::uint32_t attempt);
    /** @{ Batched-retry thunks (RetryRecord::Fn) of the two fill
     *  paths. A local fill is a record from its attempt 0; a network
     *  fill runs attempt 0 on delivery and becomes one when refused. */
    static Cycle retryFinishFill(void* owner, RetryRecord& rec);
    static Cycle retryLocalFill(void* owner, RetryRecord& rec);
    /** @} */
    void evictL2Line(CacheArray::Line line);
    void sendToHome(MsgType type, Addr block, const BlockData* data,
                    bool dirty, std::uint32_t txn_id = 0);
    /**
     * Send the request that MSHR @p m tracks. In fault-tolerant mode
     * this tags the message with a fresh transaction id (the home's
     * dedup key) and arms the retransmit timer; otherwise it is exactly
     * sendToHome. Reissues (stolen block, upgrade follow-on) get a
     * fresh id too — they open a new directory transaction.
     */
    void sendRequest(Mshr* m, MsgType type, const BlockData* data,
                     bool dirty);
    /** Schedule the retry deadline for (@p block, @p kind, @p txn). */
    void armRetry(Addr block, Mshr::Kind kind, std::uint32_t txn,
                  std::uint32_t attempt);
    /** Retry deadline elapsed: retransmit, re-arm, or abandon. */
    void onRetryTimer(Addr block, Mshr::Kind kind, std::uint32_t txn,
                      std::uint32_t attempt);
    /** Backoff delay before attempt @p attempt's deadline. */
    Cycle backoffFor(std::uint32_t attempt) const;
    /** Propagate dirty L1 data into the L2 line. */
    void syncL2FromL1(Addr block);
    void syncL2FromL1(CacheArray::Line l1line, CacheArray::Line l2line);

    NodeId node_;
    HomeMap homeMap_;
    Network& net_;
    EventQueue& eq_;
    AgentParams params_;
    CoherenceListener* listener_ = nullptr;

    CacheArray l1_;
    CacheArray l2_;
    VictimCache vc_;
    MshrFile mshrs_;
    std::uint32_t fetchCount_ = 0;
    std::uint32_t nextTxnId_ = 1;   //!< 0 is the "untagged" sentinel
    std::uint32_t specLines_ = 0;   //!< L1 lines with speculative bits
    RingDeque<Msg> deferred_;
    bool externalBlocked_ = false;
    /** Recycled scratch buffers for deferred-request drains: swap-out
     *  iteration without per-call vector churn. A pool, not a single
     *  member, because drains can re-enter (abort paths). */
    std::vector<std::vector<Msg>> msgScratchPool_;
};

} // namespace invisifence

#endif // INVISIFENCE_COH_CACHE_AGENT_HH
