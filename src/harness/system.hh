/**
 * @file
 * Whole-system builder: N nodes of {core, cache agent, directory slice}
 * on a torus, one consistency implementation per core.
 *
 * Default parameters reproduce Figure 6 (16 nodes, 4-wide OoO cores,
 * 64 KB L1, private L2, 4x4 torus at 25 ns/hop, 40 ns memory).
 */

#ifndef INVISIFENCE_HARNESS_SYSTEM_HH
#define INVISIFENCE_HARNESS_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coh/cache_agent.hh"
#include "coh/directory.hh"
#include "coh/network.hh"
#include "core/invisifence.hh"
#include "cpu/consistency.hh"
#include "cpu/core.hh"
#include "mem/functional_mem.hh"
#include "sim/annotations.hh"
#include "sim/event_queue.hh"
#include "sim/fault.hh"
#include "sim/stats.hh"

namespace invisifence {

/** Every consistency implementation evaluated in the paper. */
enum class ImplKind
{
    ConvSC,          //!< conventional SC (Figures 1, 8, 9, 12)
    ConvTSO,         //!< conventional TSO
    ConvRMO,         //!< conventional RMO
    InvisiSC,        //!< INVISIFENCE-SELECTIVE enforcing SC
    InvisiTSO,       //!< INVISIFENCE-SELECTIVE enforcing TSO
    InvisiRMO,       //!< INVISIFENCE-SELECTIVE enforcing RMO
    InvisiSC2Ckpt,   //!< selective SC with two checkpoints (Figure 11)
    Continuous,      //!< INVISIFENCE-CONTINUOUS, abort-immediately
    ContinuousCoV,   //!< INVISIFENCE-CONTINUOUS with commit-on-violate
    Aso,             //!< ASOsc baseline (Figure 11)
};

const char* implKindName(ImplKind k);

/** System-wide parameters (Figure 6 defaults). */
struct SystemParams
{
    std::uint32_t numCores = 16;
    CoreParams core{};
    AgentParams agent{};
    DirectoryParams dir{};
    NetworkParams net{};
    /** Override for speculative configs (0 = preset default). */
    std::uint32_t specSbEntries = 0;
    std::uint32_t minChunkSize = 100;
    Cycle covTimeout = 4000;
    /** Apply commit-on-violate to selective variants too (Section 6.6). */
    bool selectiveCov = false;
    /** Override for the engine's speculative footprint cap (0 = keep). */
    std::uint32_t specFootprintCap = 0;
    /**
     * Block-hash home placement (HomeMap::hashed): shards directory
     * homes uniformly instead of by the low block-address bits. Changes
     * traffic patterns, so it is opt-in; the default preserves the
     * committed 16-core goldens.
     */
    bool dirHashHome = false;
    /**
     * Quiescence-aware cycle skipping: -1 = follow INVISIFENCE_FASTFWD
     * (default on), 0 = legacy per-cycle loop, 1 = force on. Both modes
     * produce bit-identical RunResults (see tests/fastforward_test.cc).
     */
    int fastForward = -1;
    /**
     * Fault-injection plan for the coherence fabric (see sim/fault.hh).
     * Default-constructed = inject nothing, and the network hook is not
     * even attached, so clean runs stay byte-identical to the goldens.
     * Any active plan (or a nonzero agent.retryTimeout) switches the
     * agents and directory slices into fault-tolerant mode.
     */
    FaultPlan fault{};
    /**
     * Liveness watchdog: if this many cycles pass with work pending but
     * no progress signal (no event scheduled or executed, no
     * instruction retired), dump every in-flight transaction and fail
     * fast instead of spinning to the cycle budget. 0 = off (default).
     */
    Cycle watchdog = 0;

    /** The paper's full configuration (8 MB L2). */
    static SystemParams paper();
    /** Same timing, 2 MB L2 (footprints fit either way; saves memory). */
    static SystemParams bench();
    /** Tiny deterministic system for unit tests. */
    static SystemParams small(std::uint32_t cores);
};

/** A complete simulated multiprocessor. */
class System
{
  public:
    /**
     * Build a system where core @c i runs @p programs[i] under the
     * implementation @p kind.
     */
    System(const SystemParams& params,
           std::vector<std::unique_ptr<ThreadProgram>> programs,
           ImplKind kind);

    /** Run for @p cycles more cycles. */
    void run(Cycle cycles);

    /**
     * Run until every core's program halted and drained AND the event
     * queue is empty (no in-flight coherence traffic), or @p max_cycles
     * elapse. Returns true when the whole system finished.
     */
    bool runUntilDone(Cycle max_cycles);

    /** @{ Quiescence-aware fast-forward introspection. */
    bool fastForwardEnabled() const { return fastForward_; }
    /** Cycles skipped (bulk-accrued) instead of ticked. */
    std::uint64_t statFastForwardedCycles = 0;
    /** Number of fast-forward jumps taken. */
    std::uint64_t statFastForwards = 0;
    /** Whole-shard visits skipped because every member was dormant. */
    std::uint64_t statShardSkips = 0;
    /** @} */

    Cycle now() const { return now_; }
    std::uint32_t numCores() const { return params_.numCores; }

    Core& core(std::uint32_t i) { return *cores_[i]; }
    CacheAgent& agent(std::uint32_t i) { return *agents_[i]; }
    DirectorySlice& directory(std::uint32_t i) { return *dirs_[i]; }
    ConsistencyImpl& impl(std::uint32_t i) { return *impls_[i]; }
    FunctionalMemory& memory() { return mem_; }
    EventQueue& eventQueue() { return eq_; }
    Network& network() { return net_; }
    StatRegistry& stats() { return stats_; }
    ImplKind kind() const { return kind_; }
    /** Block-to-home placement shared by every agent and slice. */
    const HomeMap& homeMap() const { return homeMap_; }

    // Direct summers for the watchdog and the benchmark's stat adapter.
    // RunResult reads the same counters through stats() (runFields()).
    /** Sum of all cores' cycle breakdowns. */
    Breakdown totalBreakdown() const;
    /** Total retired instructions across cores. */
    std::uint64_t totalRetired() const;
    /** Total cycles spent speculating across cores (Figure 10). */
    std::uint64_t totalSpeculatingCycles() const;
    /** Sum of core cycles (numCores * elapsed). */
    std::uint64_t totalCoreCycles() const;
    /** @{ System-wide memory/directory accounting totals (JSON v2). */
    std::uint64_t totalMshrFullStalls() const;
    std::uint64_t totalDirStaleWritebacks() const;
    std::uint64_t totalDirQueuedRequests() const;
    /** @} */

  private:
    /**
     * Tick every due core at cycle @p now. With fast-forward on, a core
     * whose tick made no state change (work version unchanged, nothing
     * scheduled) goes dormant until its own time threshold
     * (Core::nextWorkAt) or until an event tagged with its node is about
     * to execute; its skipped cycles are bulk-accrued on wake.
     */
    void tickCores(Cycle now);
    /** Accrue core @p i's dormant stall cycles up to @p upto. */
    void settleCore(std::uint32_t i, Cycle upto);
    /** Settle every core's accounting up to @p upto (run boundaries). */
    void settleAll(Cycle upto);
    /** Event-queue wake hook: settle and wake @p node for @p when. */
    void onEventWake(std::uint32_t node, Cycle when);
    /** Advance now_ to just before the next due event/wake, <= @p end. */
    void maybeJump(Cycle end);

    /**
     * Hierarchical quiescence: cores group into shards of
     * 2^kShardShift, and shardWake_[s] holds the exact minimum of its
     * members' wakeAt_. tickCores skips a whole dormant shard with one
     * compare, and maybeJump scans numShards slots instead of numCores
     * — the difference between usable and unusable kcyc/s when most of
     * a 256-core machine is idle. The minima are maintained exactly
     * (lowered by onEventWake, recomputed after a shard ticks), so
     * observable behavior is bit-identical to the per-core scan.
     */
    static constexpr std::uint32_t kShardShift = 4;
    static constexpr std::uint32_t kShardSize = 1u << kShardShift;
    void recomputeShardWake(std::uint32_t shard);

    /**
     * Liveness watchdog step, run once per loop iteration when enabled.
     * Progress signature = events scheduled + events executed + total
     * retired instructions: any protocol step or core commit moves it.
     * When it sits still for watchdog cycles with work pending,
     * watchdogFire() dumps every in-flight MSHR, directory transient,
     * and store-buffer entry, then aborts the run.
     */
    void checkWatchdog();
    [[noreturn]] IF_COLD_FN void watchdogFire();

    SystemParams params_;
    ImplKind kind_;
    HomeMap homeMap_;
    EventQueue eq_;
    FunctionalMemory mem_;
    Network net_;
    std::vector<std::unique_ptr<ThreadProgram>> programs_;
    /** Attached to net_ only when params_.fault is active. */
    std::unique_ptr<FaultInjector> faults_;
    std::vector<std::unique_ptr<DirectorySlice>> dirs_;
    std::vector<std::unique_ptr<CacheAgent>> agents_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<std::unique_ptr<ConsistencyImpl>> impls_;
    StatRegistry stats_;
    Cycle now_ = 0;
    bool fastForward_ = true;
    std::vector<Cycle> wakeAt_;      //!< next cycle each core must tick
    std::vector<Cycle> lastTicked_;  //!< last ticked/settled cycle
    std::vector<Cycle> shardWake_;   //!< exact per-shard min of wakeAt_
    /** @{ Watchdog state: threshold (0 = off), the cycle of the last
     *  observed progress, and the signature it was observed at. */
    Cycle wdThreshold_ = 0;
    Cycle wdLastProgress_ = 0;
    std::uint64_t wdLastSig_ = 0;
    /** @} */
    /** INVISIFENCE_MAX_CYCLES, sampled once at construction (benchEnv
     *  holds a std::string, so consulting it from the hot run loop
     *  would put an allocation edge under an IF_HOT root). 0 = off. */
    Cycle maxCyclesCap_ = 0;
};

/** Build the consistency implementation @p kind for one core. */
std::unique_ptr<ConsistencyImpl> makeImpl(ImplKind kind,
                                          const SystemParams& params,
                                          Core& core, CacheAgent& agent);

} // namespace invisifence

#endif // INVISIFENCE_HARNESS_SYSTEM_HH
