/**
 * @file
 * Interface by which the consistency implementation observes coherence.
 *
 * The cache agent consults its listener before serving external requests
 * that conflict with speculatively-accessed blocks (Section 3.2, violation
 * detection) and when a speculative block would otherwise be evicted. It
 * also reports applied invalidations so conventional implementations can
 * snoop their load queues (in-window speculation, Section 2.1).
 */

#ifndef INVISIFENCE_COH_LISTENER_HH
#define INVISIFENCE_COH_LISTENER_HH

#include "sim/types.hh"

namespace invisifence {

/** Consistency-side hooks invoked by the CacheAgent. */
class CoherenceListener
{
  public:
    virtual ~CoherenceListener() = default;

    /** Verdict for an external request conflicting with speculation. */
    enum class ExtAction
    {
        Proceed,   //!< conflict resolved (e.g., aborted); serve the request
        Defer,     //!< park the request (commit-on-violate); the listener
                   //!< will call CacheAgent::serveDeferred() later
    };

    /**
     * An external coherence request targets a block whose speculative
     * bits conflict: any external request to a speculatively-written
     * block, or an external write (@p wants_write) to a speculatively-
     * read block.
     */
    virtual ExtAction onSpecConflict(Addr block, bool wants_write) = 0;

    /**
     * A block with speculative bits set would have to leave the L1
     * (capacity or conflict). The listener commits all speculation if
     * the commit conditions hold and returns true; otherwise it returns
     * false and the agent defers the fill while the store buffer drains
     * (Section 4.1: on cache overflow the processor waits for the store
     * buffer to drain before committing).
     *
     * Contract: a deferred fill calls this again on every 10-cycle
     * retry, so a refusal must be idempotent apart from its counters —
     * repeating it on unchanged state must leave the same state and
     * return the same verdict. SpeculativeImpl relies on this to replay
     * a refusal without rescanning while the core's work version is
     * unchanged. The agent keeps calling on every retry even when it
     * replays the refusal from its cache stamp (no L1/L2 frame or
     * speculative bit was cleared since): it skips its own probes, not
     * the verdict, and then passes the filled block, not a re-searched
     * victim, as @p block.
     */
    virtual bool resolveSpecEviction(Addr block) = 0;

    /**
     * Deferred-fill fallback: the fill has waited too long (e.g., the
     * drain is itself blocked); the listener must abort so no
     * speculative bits remain set. Guarantees forward progress.
     */
    virtual void resolveSpecEvictionHard(Addr block) = 0;

    /**
     * The block was invalidated (external write or local L2 eviction) or
     * downgraded. Conventional implementations and INVISIFENCE-SELECTIVE
     * snoop the load queue here; INVISIFENCE-CONTINUOUS does not need to.
     */
    virtual void onInvalidateApplied(Addr block) = 0;

    /**
     * @p block became (or was refreshed as) L1-resident via installL1 —
     * the only transition that can turn a non-writable block writable.
     * Store-buffer drains that go dormant while a write fetch is in
     * flight resume probing from here; the default no-op keeps
     * implementations that never go dormant unchanged.
     */
    virtual void onL1Install(Addr block) { static_cast<void>(block); }
};

} // namespace invisifence

#endif // INVISIFENCE_COH_LISTENER_HH
