/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled for the same tick execute in insertion order, which keeps
 * whole-system simulations bit-for-bit reproducible across runs and seeds.
 *
 * The implementation is a timing wheel: a power-of-two ring of per-tick
 * buckets covering the near future (every latency in the simulated system —
 * network hops, memory, retries — is far below the wheel span), with a
 * sorted overflow map for anything scheduled further out. Scheduling and
 * popping are O(1) appends/moves instead of binary-heap sifts.
 *
 * Events are *typed and pooled*: an Event is a fixed-size, trivially
 * copyable slot holding either a coherence-message delivery
 * (MsgDelivery: sink index + the Msg itself, moved in once) or a bounded
 * inline callback — never a std::function, whose closure would heap-
 * allocate per event. Event/Msg storage is a single free-listed node
 * slab shared by all buckets: each wheel slot is an intrusive FIFO
 * chain of pool indices, executed nodes return to the free list, and
 * the pool's high-water mark is the global maximum of in-flight events
 * (reached during warmup) rather than a per-bucket one — so steady-
 * state scheduling and executing events (messages included) performs
 * zero heap allocations per simulated cycle. Message deliveries are
 * dispatched through a single registered function pointer (the
 * Network's devirtualized dispatch table) instead of per-endpoint
 * std::function sinks.
 *
 * Retries are *batched*: a RetryRecord due at tick T is appended to the
 * batch already open for T when nothing else was scheduled since that
 * batch's last append. The records would have been adjacent events in
 * T's FIFO chain, so running them back to back inside one queue node
 * is unobservable; the activity counters, size() and the wake hook
 * still see one event per record. A batch is a list of fixed-size
 * record chunks. A running batch whose records ask to run again keeps
 * them in place, behind the ones still to run, and is linked whole onto
 * the batch open for their tick; so a refused record is not copied,
 * and merging batches copies nothing.
 */

#ifndef INVISIFENCE_SIM_EVENT_QUEUE_HH
#define INVISIFENCE_SIM_EVENT_QUEUE_HH

#include "sim/annotations.hh"
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "coh/message.hh"
#include "sim/fill_waiter.hh"
#include "sim/types.hh"

namespace invisifence {

/** Node tag for events that affect no core (e.g. directory-internal). */
constexpr std::uint32_t kNoWakeNode = 0xffffffffu;

/**
 * Inline payload capacity of an Event. Sized for the largest scheduled
 * closure in the simulator: the directory's transaction-start callback,
 * which carries a full Msg plus its `this` pointer.
 */
constexpr std::size_t kEventInlineBytes = sizeof(Msg) + 2 * sizeof(void*);

/**
 * One attempt of a batched retry (see EventQueue::scheduleRetry): a
 * fixed-size, trivially copyable record. fn runs the attempt and returns
 * the delay before the next one, or 0 when the retry is finished; it may
 * update the record (e.g. count the attempt) before asking to run again.
 * block, waiter, attempt and refusedAt are the owner's payload; wakeNode
 * is the core woken before each attempt, as for any tagged event.
 */
struct RetryRecord
{
    using Fn = Cycle (*)(void* owner, RetryRecord& rec);

    /** refusedAt of a record whose last attempt left no stamp. */
    static constexpr std::uint64_t kNoStamp = ~std::uint64_t{0};

    Fn fn = nullptr;
    void* owner = nullptr;
    Addr block = 0;
    FillWaiter waiter{};
    std::uint32_t attempt = 0;
    std::uint32_t wakeNode = kNoWakeNode;
    /** The owner's state stamp right after its last refused attempt
     *  (CacheAgent: the L1 plus L2 CacheArray::mutations()), or
     *  kNoStamp. While the stamp is unchanged the refusal's facts still
     *  hold and the owner may replay it without probing its caches. */
    std::uint64_t refusedAt = kNoStamp;
};

static_assert(std::is_trivially_copyable_v<RetryRecord>,
              "retry records are copied and carried with memcpy");

/**
 * One scheduled event: a tagged, fixed-size, trivially copyable slot.
 *
 * kind == MsgDelivery: payload holds a Msg; sinkIdx names the endpoint in
 * the owning Network's dispatch table. kind == Callback: payload holds a
 * trivially-copyable closure invoked through the stored thunk. kind ==
 * RetryBatch: batch names the first record chunk of the batch.
 */
struct Event
{
    enum class Kind : std::uint8_t { Callback, MsgDelivery, RetryBatch };

    Cycle when = 0;
    void (*invoke)(void*) = nullptr;       //!< Callback thunk
    std::uint32_t wakeNode = kNoWakeNode;  //!< core to wake on execute
    std::uint32_t sinkIdx = 0;             //!< MsgDelivery endpoint
    Kind kind = Kind::Callback;
    std::uint32_t batch = 0;               //!< RetryBatch first chunk
    alignas(std::max_align_t) unsigned char payload[kEventInlineBytes];

    Msg*
    msg()
    {
        IF_DBG_ASSERT(kind == Kind::MsgDelivery);
        return std::launder(reinterpret_cast<Msg*>(payload));
    }
};

static_assert(std::is_trivially_copyable_v<Event>,
              "Event slots must move with memcpy (pooled storage)");
static_assert(std::is_trivially_copyable_v<Msg>,
              "Msg must be storable inline in a pooled Event");

/**
 * Timing-wheel event queue ordered by (tick, insertion order).
 *
 * The owning System drives it with advanceTo(now) once per simulated cycle;
 * components use schedule() for any action with latency.
 */
class EventQueue
{
  public:
    EventQueue() : wheel_(kWheelSize) {}

    /**
     * Schedule @p fn to run at absolute cycle @p when. Events whose
     * synchronous effects can touch a core (cache fills, message
     * deliveries to an agent, writeback completions) carry that core's
     * node in @p wake_node so a dormant core is woken (and its skipped
     * stall cycles settled) before the event runs; events that only
     * touch node-external state (directory transactions) use
     * kNoWakeNode.
     *
     * @p fn must be a bounded, trivially copyable closure: it is stored
     * inline in the pooled event slot (no heap allocation, ever).
     */
    template <typename F>
    void
    scheduleAt(Cycle when, F fn, std::uint32_t wake_node = kNoWakeNode)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_trivially_copyable_v<Fn>,
                      "event closures must be trivially copyable "
                      "(capture PODs / pointers / references only)");
        static_assert(sizeof(Fn) <= kEventInlineBytes,
                      "event closure exceeds the inline payload; shrink "
                      "the capture or widen kEventInlineBytes");
        static_assert(alignof(Fn) <= alignof(std::max_align_t));
        Event& ev = emplaceSlot(when, wake_node);
        ev.kind = Event::Kind::Callback;
        ::new (static_cast<void*>(ev.payload)) Fn(std::move(fn));
        ev.invoke = [](void* buf) {
            (*std::launder(reinterpret_cast<Fn*>(buf)))();
        };
    }

    /** Schedule @p fn to run @p delay cycles after the current time. */
    template <typename F>
    void
    schedule(Cycle delay, F fn, std::uint32_t wake_node = kNoWakeNode)
    {
        scheduleAt(now_ + delay, std::move(fn), wake_node);
    }

    /**
     * Schedule delivery of @p msg to dispatch-table endpoint @p sink_idx
     * after @p delay cycles. The message is copied once, into the pooled
     * event slot; execution hands it to the registered dispatcher.
     */
    void
    scheduleMsg(Cycle delay, std::uint32_t sink_idx, const Msg& msg,
                std::uint32_t wake_node = kNoWakeNode)
    {
        Event& ev = emplaceSlot(now_ + delay, wake_node);
        ev.kind = Event::Kind::MsgDelivery;
        ev.sinkIdx = sink_idx;
        ::new (static_cast<void*>(ev.payload)) Msg(msg);
    }

    /**
     * Schedule retry @p rec to make its next attempt @p delay cycles
     * from now. It joins the batch open for that tick when nothing else
     * was scheduled since the batch's last append, else opens a new
     * batch there. Either way it runs exactly where a separate event
     * scheduled now would have run, and counts as one scheduled and
     * one executed event.
     */
    void
    scheduleRetry(Cycle delay, const RetryRecord& rec)
    {
        appendRetry(now_ + delay, rec, false);
    }

    /**
     * Put @p n empty retry-record chunks on the free list now, so the
     * first retries of a run take recycled chunks instead of growing
     * the chunk slab mid-run (set-up cost, not a setting).
     */
    void reserveRetryChunks(std::uint32_t n);

    /**
     * Devirtualized message delivery: one function pointer + context for
     * the whole queue (the Network and its endpoint table), replacing a
     * std::function sink per endpoint.
     */
    using MsgDispatch = void (*)(void* ctx, std::uint32_t sink_idx,
                                 const Msg& msg);
    void
    setMsgDispatcher(MsgDispatch fn, void* ctx)
    {
        msgDispatch_ = fn;
        msgCtx_ = ctx;
    }

    /**
     * Hook invoked with (wakeNode, when) immediately before executing
     * any event carrying a wake tag. The System uses it to settle and
     * wake the dormant core the event is about to affect. Registered as
     * a plain function pointer plus context — the same devirtualized
     * shape as setMsgDispatcher above — so the dispatch path stays
     * allocation-free and statically analyzable.
     */
    using WakeHook = void (*)(void* ctx, std::uint32_t node, Cycle when);
    void
    setWakeHook(WakeHook hook, void* ctx)
    {
        wakeHook_ = hook;
        wakeCtx_ = ctx;
    }

    /**
     * Execute every event with when <= @p tick, in deterministic order.
     * Events scheduled during execution at times <= tick also run.
     */
    void advanceTo(Cycle tick);

    /** Run until the queue is empty (used by unit tests). */
    void drain();

    Cycle now() const { return now_; }
    bool empty() const { return size_ == 0; }
    /** Pending events, counting each retry record as one. */
    std::size_t size() const { return size_; }

    /** Tick of the earliest pending event; only valid when !empty(). */
    Cycle nextEventTick() const;

    /**
     * @{ Monotonic activity counters. Their sum changes if and only if
     * an event was scheduled or executed, which lets the System detect
     * externally-quiescent cycles in O(1) (fast-forward scheduling).
     */
    std::uint64_t scheduledCount() const { return nextSeq_; }
    std::uint64_t executedCount() const { return executed_; }
    /** @} */

    /** Queue nodes dispatched: one per plain event, one per retry
     *  batch however many records it ran (host-side diagnostics). */
    std::uint64_t dispatchedNodes() const { return dispatched_; }

  private:
    static constexpr std::uint32_t kWheelBits = 11;
    static constexpr Cycle kWheelSize = Cycle{1} << kWheelBits;
    static constexpr Cycle kWheelMask = kWheelSize - 1;
    static constexpr std::uint32_t kNilNode = 0xffffffffu;

    /** One slab slot: an event plus its intrusive chain link. */
    struct Node
    {
        Event ev;
        std::uint32_t next = kNilNode;
    };

    /** FIFO chain of pool indices (head runs first). */
    struct Chain
    {
        std::uint32_t head = kNilNode;
        std::uint32_t tail = kNilNode;

        bool empty() const { return head == kNilNode; }
    };

    /** Pop a node from the free list (or grow the slab: warmup only). */
    std::uint32_t allocNode();
    /** Slab-growth slow path of allocNode (cold, allocation frontier). */
    IF_COLD_FN std::uint32_t growPool();
    /** Return a node to the free list. */
    void
    freeNode(std::uint32_t idx)
    {
        pool_[idx].next = freeHead_;
        freeHead_ = idx;
    }
    /** Append node @p idx to @p chain (FIFO order). */
    void
    appendNode(Chain& chain, std::uint32_t idx)
    {
        pool_[idx].next = kNilNode;
        if (chain.tail == kNilNode) {
            chain.head = idx;
        } else {
            pool_[chain.tail].next = idx;
        }
        chain.tail = idx;
    }

    /** Clamp a past @p when to now (warning once); returns the tick. */
    Cycle clampWhen(Cycle when);
    /** Link a fresh node at @p when into its chain; returns its index.
     *  Counts nothing: events and retry records count themselves. */
    std::uint32_t linkNode(Cycle when, std::uint32_t wake_node);

    /**
     * Claim a pooled slot for an event at @p when (common, non-template
     * bookkeeping behind schedule/scheduleMsg). The caller fills kind
     * and payload immediately — before any further call that could grow
     * the slab and invalidate the reference.
     */
    Event& emplaceSlot(Cycle when, std::uint32_t wake_node);

    /** A fixed-size block of retry records; a batch is a list of them.
     *  Allocated one by one so records never move while they run. */
    struct RetryChunk
    {
        static constexpr std::uint32_t kRecords = 16;
        RetryRecord recs[kRecords];
        std::uint32_t count = 0;
        std::uint32_t next = kNilNode;   //!< batch list, or free list
    };
    RetryChunk& chunk(std::uint32_t c) { return *chunks_[c]; }
    const RetryChunk& chunk(std::uint32_t c) const { return *chunks_[c]; }
    /** Append @p rec at @p when; @p carry marks the running record's
     *  own next attempt (the only append that may overwrite it). */
    void appendRetry(Cycle when, const RetryRecord& rec, bool carry);
    /** Link a queue node at @p when running the batch at chunk @p c. */
    void linkBatch(std::uint32_t c, Cycle when);
    /** An empty chunk from the free list (or a fresh one). */
    std::uint32_t takeChunk();
    /** Free-list miss of takeChunk (cold, allocation frontier). */
    IF_COLD_FN std::uint32_t growChunks();
    /** Seal the writer's chunk and move it to the running chunk. */
    void jumpWriter();
    /** Next in-place slot of the running batch's carried records. */
    RetryRecord& writerSlot();
    /** Is the writer's next slot strictly behind the running record? */
    bool writerBehind() const;
    /** Run every record of the batch starting at chunk @p head, due
     *  at @p when, in order. */
    void runRetryBatch(std::uint32_t head, Cycle when);

    /** The shared event/Msg slab; nodes are free-listed and recycled. */
    std::vector<Node> pool_;
    std::uint32_t freeHead_ = kNilNode;
    /** Per-tick chains for the near future. Pending wheel events always
     *  have when in [now_, now_ + kWheelSize), so each slot holds at
     *  most one tick's events at a time. */
    std::vector<Chain> wheel_;
    /** Chain for a far event at @p when, creating the map entry from
     *  the recycled-node pool when possible. Under heavy contention
     *  (large machines), link backlogs push deliveries past the wheel
     *  span every cycle — far_ churn is steady-state there, so its map
     *  nodes are pooled exactly like the event slab. */
    Chain& farChain(Cycle when);
    /** Pool-miss slow path of farChain (cold, allocation frontier). */
    IF_COLD_FN Chain& coldFarChain(Cycle when);

    /** Events scheduled >= kWheelSize cycles out, ordered by tick. A
     *  chain migrates in front of its wheel slot at execution time
     *  (far-scheduled events always predate wheel appends for the same
     *  tick, so prepending preserves insertion order). */
    std::map<Cycle, Chain> far_;
    /** Extracted far_ nodes awaiting reuse (see farChain()). */
    std::vector<std::map<Cycle, Chain>::node_type> farPool_;
    /** Retry-record chunks (stable addresses) and their free list. */
    std::vector<std::unique_ptr<RetryChunk>> chunks_;
    std::uint32_t freeChunk_ = kNilNode;
    /** @{ The batch accepting appends, due at openWhen_ and adjacent
     *  while nextSeq_ still equals openSeq_ (nothing scheduled since its
     *  last append). Its tail is chunk openTail_, or the running
     *  batch's writer when openAtWriter_. */
    std::uint32_t openTail_ = kNilNode;
    bool openAtWriter_ = false;
    Cycle openWhen_ = 0;
    std::uint64_t openSeq_ = 0;
    /** @} */
    /** @{ The running batch: record runRead_ of chunk runChunk_ is
     *  executing. Its first carried record reopens it (runReopened_):
     *  carried records then go to the writer (writeChunk_, writeIdx_),
     *  which never passes the running record. The writer compacts
     *  within a chunk and packs a chunk's carries into an earlier
     *  chunk only when they all fit there (decided once per chunk,
     *  writeFor_), so a carry never shifts a full chunk and usually
     *  copies nothing. */
    std::uint32_t runChunk_ = kNilNode;
    std::uint32_t runRead_ = 0;
    std::uint32_t writeChunk_ = kNilNode;
    std::uint32_t writeFor_ = kNilNode;
    std::uint32_t writeIdx_ = 0;
    bool runReopened_ = false;
    /** @} */
    std::size_t size_ = 0;
    /** Lower bound on the earliest pending tick (lazily advanced). */
    mutable Cycle nextTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t dispatched_ = 0;
    Cycle now_ = 0;
    WakeHook wakeHook_ = nullptr;
    void* wakeCtx_ = nullptr;
    MsgDispatch msgDispatch_ = nullptr;
    void* msgCtx_ = nullptr;
    bool warnedPastSchedule_ = false;
};

} // namespace invisifence

#endif // INVISIFENCE_SIM_EVENT_QUEUE_HH
