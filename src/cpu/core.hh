/**
 * @file
 * Out-of-order core model (Figure 6: 4 GHz, 4-wide, 96-entry ROB).
 *
 * The pipeline is collapsed to the three stages that matter for memory
 * ordering studies: dispatch (fetch from the thread program into the
 * ROB), execute (issue loads/atomics to the memory system out of order,
 * complete ALU ops), and retire (in order, gated by the consistency
 * implementation). In-window speculative load reordering is supported by
 * snooping the ROB's bound-value loads on invalidations and replaying
 * from the violating load, as in MIPS R10000-style designs (Section 2.1).
 *
 * The per-tick window walks (execute, the nextWorkAt() readiness memo,
 * the invalidation snoop) visit only the entries marked in the ROB's
 * Pending and Bound slot masks, oldest first; every status transition
 * below updates the masks, so no walk ever tests an idle entry.
 */

#ifndef INVISIFENCE_CPU_CORE_HH
#define INVISIFENCE_CPU_CORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "coh/cache_agent.hh"
#include "cpu/accounting.hh"
#include "cpu/program.hh"
#include "cpu/rob.hh"
#include "sim/annotations.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace invisifence {

class ConsistencyImpl;

/** Core pipeline parameters. */
struct CoreParams
{
    std::uint32_t width = 4;        //!< dispatch/retire width
    std::uint32_t robSize = 96;
    std::uint32_t l1Ports = 3;      //!< memory issues per cycle
    bool storePrefetch = true;      //!< prefetch write permission early
};

/** One out-of-order core bound to a thread program and a cache agent. */
class Core
{
  public:
    Core(NodeId id, const CoreParams& params, CacheAgent& agent,
         ThreadProgram& program);

    /** Must be called before the first tick. */
    void setConsistency(ConsistencyImpl* impl);

    /** Advance one cycle: retire, execute, dispatch, account. */
    void tick(Cycle now);

    /**
     * @{ Quiescence-aware fast-forward interface (System scheduling).
     *
     * noteWork() bumps a monotonic version stamp on every state change a
     * tick can make (retirement, issue, dispatch, squash, store-buffer
     * motion, checkpoint transitions). A cycle in which no core's
     * version moved and the event queue neither ran nor gained events is
     * externally quiescent: repeating the tick can only repeat the same
     * stall accounting until either an event fires or a time threshold
     * (load readyAt, CoV deadline, ASO commit drain) is crossed.
     */
    void noteWork() { ++workVersion_; }
    std::uint64_t workVersion() const { return workVersion_; }

    /**
     * Earliest future cycle at which this core's tick could do more than
     * repeat the last cycle's stall accounting, absent external events:
     * the minimum over value-bound in-flight ROB completions (readyAt)
     * and the consistency implementation's own nextWorkAt().
     * kNeverCycle when only an event can unblock the core.
     */
    Cycle nextWorkAt() const;

    /**
     * Bulk-account @p n skipped quiescent cycles exactly as n no-progress
     * tick() calls would have: cycle counter, the recorded stall kind
     * routed through the consistency implementation (pending speculative
     * breakdown or committed breakdown), and the impl's per-cycle
     * counters (statCyclesSpeculating and friends).
     */
    void accrueStallCycles(std::uint64_t n);

    /**
     * Bring the core's local clock to @p now without ticking, so
     * event-context uses of now() (e.g. CoV deadlines) see the same
     * value as in the per-cycle loop, where the core last ticked the
     * cycle before the event. Dormancy bookkeeping only.
     */
    void syncTime(Cycle now) { now_ = now; }
    /** @} */

    /** @{ Services used by consistency implementations. */
    CacheAgent& agent() { return agent_; }
    ThreadProgram& program() { return program_; }
    Cycle now() const { return now_; }

    /** Program state as of the last retired instruction. */
    const ProgSnapshot& retiredSnapshot() const { return retiredSnap_; }

    /**
     * Full rollback (speculation abort): flush all in-flight
     * instructions, restore the program checkpoint, resume fetch.
     * @p last_valid_seq is the youngest retired instruction that
     * survives the rollback; younger journal records are discarded.
     */
    void rollbackTo(const ProgSnapshot& snap, InstSeq last_valid_seq);

    /** Sequence number of the most recently retired instruction. */
    InstSeq lastRetiredSeq() const { return lastRetiredSeq_; }

    /** One committed retirement, for litmus outcome observers. */
    struct RetireRecord
    {
        InstSeq seq = 0;
        OpType type = OpType::Nop;
        Addr addr = 0;
        std::uint64_t result = 0;
    };

    /** Record retired memory operations (litmus outcome checking). */
    void enableJournal() { journalEnabled_ = true; }
    const std::vector<RetireRecord>& journal() const { return journal_; }
    /** Journal-capture slow path of retireStage (cold, diagnostics). */
    IF_COLD_FN void journalAppend(const RobEntry& h);

    /**
     * In-window snoop: an invalidation hit @p block. Replay from the
     * oldest bound-value load of that block, if any. Loads protected by
     * speculative read bits (specMarked) are skipped; their violations
     * surface through the cache bits instead.
     */
    void notifyInvalidated(Addr block);

    Breakdown& breakdown() { return breakdown_; }
    const Breakdown& breakdown() const { return breakdown_; }
    /** @} */

    NodeId id() const { return id_; }
    const CoreParams& params() const { return params_; }
    bool halted() const { return halted_; }

    /** True when the program halted and the pipeline fully drained. */
    bool done() const;

    const Rob& rob() const { return rob_; }

    /** Register this core's statistics under @p prefix. */
    void registerStats(StatRegistry& reg, const std::string& prefix) const;

    std::uint64_t statRetired = 0;
    std::uint64_t statLoads = 0;
    std::uint64_t statStores = 0;
    std::uint64_t statAtomics = 0;
    std::uint64_t statFences = 0;
    std::uint64_t statMispredicts = 0;
    std::uint64_t statLqSquashes = 0;
    std::uint64_t statL1LoadHits = 0;
    std::uint64_t statLoadForwards = 0;
    std::uint64_t statLoadMisses = 0;
    std::uint64_t statCycles = 0;

  private:
    void retireStage();
    void executeStage();
    void dispatchStage();

    /** Try to issue the load-like entry at @p idx; true on issue. */
    bool tryIssueLoad(std::size_t idx);

    /**
     * @{ Fill wake path. Load misses register one 24-byte FillWaiter
     * record — {fillWakeThunk, this, seq} — instead of one 40-byte
     * heap-capable closure per load. The wake resolves the sequence
     * number back to its ROB entry (if still live) and binds or
     * replays that one load, preserving the per-load wake order of
     * the waiter chains.
     */
    void wakeLoad(InstSeq seq);
    static void fillWakeThunk(void* owner, std::uint64_t arg);
    /** @} */

    /** Forward from an older in-ROB store-like entry. Three-state:
     *  value (hit), nullopt+match=false (no producer), match=true with
     *  no value (producer exists but value unresolved: stall). */
    struct RobForward
    {
        bool producerFound = false;
        bool valueKnown = false;
        std::uint64_t value = 0;
        InstSeq producerSeq = 0;   //!< the matching store-like's seq
    };
    /** Naive O(window) age-ordered scan; debug oracle for the CAM. */
    RobForward forwardFromRob(std::size_t idx, Addr addr) const;
    /** Same result via the word CAM chain: O(same-word store-likes). */
    RobForward forwardFromChain(std::size_t idx, Addr addr) const;

    void bindLoadValue(RobEntry& entry, std::uint64_t value, Cycle ready);

    /**
     * @{ Execute-stage slot masks (Rob::Mask), maintained at every
     * status transition so the per-tick walks — execute, the
     * nextWorkAt() readiness memo and the invalidation snoop — visit
     * set bits in age order instead of the whole window. Squashes
     * rebuild both masks wholesale (rare); a debug build checks them
     * against a full-scan recomputation every tick.
     */
    void recountRobStates();
#ifndef NDEBUG
    void verifyRobMasks() const;
#endif
    /**
     * Conservative 64-bit filter over the block addresses of bound
     * load-likes: a set bit may be stale (loads leave at retirement
     * without clearing), but every bound load's block is always
     * covered, so a filter miss safely skips the invalidation snoop's
     * walk. Rebuilt exactly on recounts; reset when the Bound mask
     * empties at a retirement, so it is 0 whenever the mask is empty.
     */
    std::uint64_t boundLoadFilter_ = 0;

    static std::uint64_t
    blockFilterBit(Addr block)
    {
        // Multiplicative hash of the block number into one of 64 bits.
        return std::uint64_t{1}
               << ((((block >> kBlockShift) *
                     0x9e3779b97f4a7c15ull) >> 58) & 63u);
    }
    /** @} */

    /**
     * @{ Exact in-window store CAM, replacing the O(window) forwarding
     * scan: an open-addressed word -> youngest-store-seq table plus the
     * per-entry prevSameWord links form youngest-first chains over
     * exactly the same-word store-likes, so store-to-load forwarding
     * walks O(matches) entries. The table is insert/overwrite-only
     * (stale seqs are detected by Rob::indexOf and provably imply the
     * whole older chain retired); sweeps rebuild it from the window
     * when stale slots accumulate or on recounts. Debug builds verify
     * every chain walk against the naive scan.
     */
    InstSeq wordMapInsert(Addr word, InstSeq seq);
    InstSeq wordMapInsertRaw(Addr word, InstSeq seq);
    InstSeq wordMapYoungest(Addr word) const;
    void wordMapRebuild();

    struct WordSlot
    {
        Addr word = 0;
        InstSeq seq = 0;   //!< 0 = empty slot
    };
    std::vector<WordSlot> wordMap_;      //!< pow2-sized, >= 4x robSize
    std::uint32_t wordMapMask_ = 0;
    std::uint32_t wordMapOccupied_ = 0;

    std::size_t
    wordMapHome(Addr word) const
    {
        return static_cast<std::size_t>(
            ((word >> 3) * 0x9e3779b97f4a7c15ull) >> 32) & wordMapMask_;
    }
    /** @} */

    NodeId id_;
    CoreParams params_;
    CacheAgent& agent_;
    ThreadProgram& program_;
    ConsistencyImpl* impl_ = nullptr;

    Rob rob_;
    ProgSnapshot retiredSnap_{};
    InstSeq nextSeq_ = 1;
    Cycle now_ = 0;
    bool halted_ = false;
    std::uint64_t workVersion_ = 0;
    StallKind lastStallKind_ = StallKind::Other;
    /** Memoized min readyAt over bound in-flight ROB entries; valid
     *  while workVersion_ == robReadyVersion_ (any ROB change bumps). */
    mutable std::uint64_t robReadyVersion_ = ~std::uint64_t{0};
    mutable Cycle robReadyMemo_ = 0;
    std::uint64_t flushEpoch_ = 0;   //!< bumps on every squash/rollback
    InstSeq lastRetiredSeq_ = 0;
    bool journalEnabled_ = false;
    std::vector<RetireRecord> journal_;
    Breakdown breakdown_{};
};

} // namespace invisifence

#endif // INVISIFENCE_CPU_CORE_HH
