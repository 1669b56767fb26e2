/**
 * @file
 * INVISIFENCE: post-retirement speculation for memory ordering
 * (Sections 3 and 4 of the paper), plus the ASO baseline as a
 * configuration preset.
 *
 * The engine implements:
 *  - register checkpoints (program snapshots), one or two in flight;
 *  - speculatively-read/written bits in the L1 with flash commit/abort;
 *  - the coalescing store buffer discipline, including the no-coalesce
 *    rule across speculative/non-speculative and checkpoint boundaries,
 *    cleaning writebacks of dirty blocks, and held second-checkpoint
 *    entries;
 *  - INVISIFENCE-SELECTIVE triggers for SC/TSO/RMO (Section 4.1) with
 *    constant-time opportunistic commit;
 *  - INVISIFENCE-CONTINUOUS chunked execution with a minimum chunk size
 *    and pipelined two-checkpoint commit (Section 4.2), marking read bits
 *    at execute and subsuming load-queue snooping;
 *  - the commit-on-violate (CoV) policy with a bounded timeout
 *    (Section 3.2, violation detection);
 *  - an ASO-like baseline (Section 5/6.4): unbounded per-store buffer,
 *    multiple checkpoints, and a commit that drains one store per cycle
 *    into the L2 while the cache's external interface is blocked.
 */

#ifndef INVISIFENCE_CORE_INVISIFENCE_HH
#define INVISIFENCE_CORE_INVISIFENCE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/consistency.hh"
#include "cpu/core.hh"
#include "mem/store_buffer.hh"
#include "sim/types.hh"

namespace invisifence {

/** Configuration of one speculative consistency implementation. */
struct SpecConfig
{
    Model model = Model::SC;       //!< enforced consistency model
    bool continuous = false;       //!< continuous (chunk) speculation
    std::uint32_t numCheckpoints = 1;
    std::uint32_t sbEntries = 8;   //!< 32 with two checkpoints (Fig. 6)
    std::uint32_t minChunkSize = 100;
    bool commitOnViolate = false;
    Cycle covTimeout = 4000;
    /** ASO: cycles per store drained at commit (0 = flash commit). */
    Cycle commitDrainPerStore = 0;
    /** ASO: per-store SSB with no practical capacity limit. */
    bool unboundedSb = false;
    /**
     * Bound on a single-checkpoint speculation's length (instructions).
     * When exceeded, the engine stops extending the window so the store
     * buffer drains and the commit fires — the same periodic-commit idea
     * as ASO's checkpoints, and it keeps the speculative footprint well
     * inside the L1 (0 = unbounded). Swept by bench/abl_window.
     */
    std::uint64_t maxWindowInsts = 0;
    /**
     * Commit pressure starts once this many L1 lines carry speculative
     * bits: keeping the footprint well below the L1's capacity avoids
     * forced-eviction stalls/aborts (the paper's cache-overflow commit,
     * applied proactively). Swept by bench/abl_window.
     */
    std::uint32_t specFootprintCap = 320;
    std::string nameOverride;

    /** INVISIFENCE-SELECTIVE for @p m (Invisi_sc / _tso / _rmo). */
    static SpecConfig selective(Model m, std::uint32_t ckpts = 1);
    /** INVISIFENCE-CONTINUOUS (optionally with commit-on-violate). */
    static SpecConfig continuousMode(bool cov);
    /** ASO baseline enforcing SC (ASOsc in Section 6.4). */
    static SpecConfig aso();

    std::string name() const;
};

/** The unified post-retirement speculation engine. */
class SpeculativeImpl : public ConsistencyImpl
{
  public:
    SpeculativeImpl(const SpecConfig& cfg, Core& core, CacheAgent& agent);

    void tick() override;
    RetireCheck canRetire(RobEntry& entry) override;
    void onRetire(RobEntry& entry) override;
    std::optional<std::uint64_t> forwardStore(Addr addr) const override;
    bool speculating() const override { return !order_.empty(); }
    void onLoadExecuted(RobEntry& entry) override;
    bool routeCycles(StallKind kind, std::uint64_t n) override;
    void onIdle() override;
    bool quiesced() const override;
    Cycle nextWorkAt() const override;
    void accrueQuiescentCycles(std::uint64_t n) override;
    void dumpLiveness(std::FILE* out) const override;

    ExtAction onSpecConflict(Addr block, bool wants_write) override;
    bool resolveSpecEviction(Addr block) override;
    void resolveSpecEvictionHard(Addr block) override;
    void onL1Install(Addr block) override;

    const SpecConfig& config() const { return cfg_; }
    const CoalescingStoreBuffer& storeBuffer() const { return sb_; }

    /** Register engine statistics under @p prefix. */
    void registerStats(StatRegistry& reg, const std::string& prefix) const;

    /** Cycles accrued by still-active checkpoints (not yet folded). */
    Breakdown pendingBreakdown() const;

    std::uint64_t statSpeculations = 0;
    std::uint64_t statCommits = 0;
    std::uint64_t statAborts = 0;
    std::uint64_t statCyclesSpeculating = 0;
    std::uint64_t statSpecRetired = 0;       //!< committed spec instrs
    std::uint64_t statAbortedRetired = 0;    //!< discarded spec instrs
    std::uint64_t statConflicts = 0;
    std::uint64_t statCovDeferrals = 0;
    std::uint64_t statCovCommits = 0;
    std::uint64_t statCovTimeouts = 0;
    std::uint64_t statCleanings = 0;
    std::uint64_t statMarkFallbacks = 0;

  private:
    /** One checkpoint context. */
    struct Ckpt
    {
        bool active = false;
        bool closed = false;      //!< no longer accepts instructions
        bool committing = false;  //!< ASO drain in progress
        Cycle commitDoneAt = 0;
        ProgSnapshot snap{};
        InstSeq boundarySeq = 0;  //!< last retired seq at checkpoint time
        Cycle startedAt = 0;
        std::uint64_t retiredInsts = 0;
        std::uint64_t storeCount = 0;
        Breakdown pendingAcct{};
    };

    /** Where a retiring store's data goes. */
    enum class StoreRoute
    {
        DirectHit,     //!< write straight into the L1
        Merge,         //!< coalesce into a compatible SB entry
        NewEntry,      //!< allocate a fresh SB entry
        NewEntryHeld,  //!< fresh entry held until the older ckpt commits
        Full,          //!< no room: SB-full stall
    };
    /**
     * Classify a store. Resolves the block's L1/L2 lines once; when
     * @p view_out is non-null the resolution is returned so the caller
     * (doStore's direct-hit path) can write through it without another
     * tag scan.
     */
    StoreRoute routeStore(Addr addr, bool spec, std::uint32_t ctx,
                          CacheAgent::BlockView* view_out = nullptr) const;
    void doStore(Addr addr, std::uint64_t value, bool spec,
                 std::uint32_t ctx, InstSeq seq);
    /**
     * Capacity check for a retiring write. For a plain store (@p
     * memoize), the computed route and block resolution are remembered
     * keyed by @p seq: nothing can run between canRetire's check and
     * onRetire's doStore for that instruction, so doStore reuses them
     * instead of re-running routeStore (debug builds re-derive and
     * assert equality).
     */
    RetireCheck checkStoreCapacity(Addr addr, bool spec,
                                   std::uint32_t ctx, bool memoize,
                                   InstSeq seq);

    /** Conventional-mode retirement rules for the target model. */
    RetireCheck conventionalCanRetire(RobEntry& entry);
    /** Would the conventional rules stall this entry for ordering? */
    bool wouldTriggerSpeculation(const RobEntry& entry) const;

    bool hasOpenCkpt() const;
    std::uint32_t openCtx() const;
    std::uint32_t freeSlot() const;
    void openCkpt();
    void maybeCloseChunk();

    bool anyNonSpecSbEntry() const;
    bool robHasMarkedLoads(std::uint32_t ctx) const;
    bool commitConditionsMet(std::uint32_t ctx, bool ignore_closed) const;
    /** Could every active checkpoint commit right now? */
    bool allCkptsReady() const;
    /** Advance the oldest checkpoint toward commit; true if it retired. */
    bool tryCommitOldest(bool force_close);
    void finishCommit(std::uint32_t ctx);
    void abortAll();
    void drainStoreBuffer();

    SpecConfig cfg_;
    CoalescingStoreBuffer sb_;
    Ckpt ckpts_[kMaxCheckpoints];
    std::vector<std::uint32_t> order_;   //!< active ckpts, oldest first
    bool needNonSpecProgress_ = false;
    /** A deferred fill is waiting: stop extending speculation so the
     *  store buffer drains and the commit can fire (Section 4.1). */
    bool commitPressure_ = false;
    /** Core work version right after resolveSpecEviction's last
     *  refusal: while it is unchanged, so is the refusal. */
    std::uint64_t refusedAtVersion_ = ~std::uint64_t{0};
    bool covArmed_ = false;
    Cycle covDeadline_ = 0;
    /** Blocks with a cleaning writeback in flight. A small flat vector
     *  (bounded by the SB size), not a node-based set: insert/erase per
     *  cleaned store must not touch the heap. */
    std::vector<Addr> cleaningPending_;
    bool cleaningPendingContains(Addr block) const;
    void cleaningPendingErase(Addr block);
    /** cleanWriteback completion (FillWaiter fn): {impl, block}. */
    static void cleanedThunk(void* owner, std::uint64_t block);
    /** Per-tick "first entry per block" scratch for drainStoreBuffer
     *  (reused; a per-call unordered_set allocated every tick). */
    std::vector<Addr> drainSeen_;
    /** @{ Route memo from checkStoreCapacity to doStore (seq 0 = none). */
    InstSeq routeMemoSeq_ = 0;
    bool routeMemoSpec_ = false;
    std::uint32_t routeMemoCtx_ = 0;
    StoreRoute routeMemoRoute_ = StoreRoute::Full;
    CacheAgent::BlockView routeMemoView_{};
    /** @} */
};

} // namespace invisifence

#endif // INVISIFENCE_CORE_INVISIFENCE_HH
