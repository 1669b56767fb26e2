#include "sim/event_queue.hh"

#include "sim/annotations.hh"

#include "sim/log.hh"

namespace invisifence {

std::uint32_t
EventQueue::allocNode()
{
    if (freeHead_ != kNilNode) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = pool_[idx].next;
        return idx;
    }
    return growPool();
}

std::uint32_t
EventQueue::growPool()
{
    IF_COLD_ALLOC("event-slab growth: nodes are free-listed and "
                  "recycled, so the slab only grows until the in-flight "
                  "high-water mark is reached during warmup");
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

EventQueue::Chain&
EventQueue::farChain(Cycle when)
{
    auto it = far_.lower_bound(when);
    if (it != far_.end() && it->first == when)
        return it->second;
    if (!farPool_.empty()) {
        auto node = std::move(farPool_.back());
        farPool_.pop_back();
        node.key() = when;
        node.mapped() = Chain{};
        return far_.insert(it, std::move(node))->second;
    }
    return coldFarChain(when);
}

EventQueue::Chain&
EventQueue::coldFarChain(Cycle when)
{
    IF_COLD_ALLOC("far_ map nodes are pooled (farPool_); a fresh node "
                  "is only allocated until the pool reaches the "
                  "high-water mark of concurrently pending far ticks");
    return far_.emplace_hint(far_.lower_bound(when), when, Chain{})
        ->second;
}

Cycle
EventQueue::clampWhen(Cycle when)
{
    IF_DBG_ASSERT(when >= now_ && "scheduling an event in the past");
    if (when < now_) {
        // Release-build safety net: clamp to now, but say so once — a
        // silently rewritten schedule usually means a latency
        // computation underflowed somewhere upstream.
        if (!warnedPastSchedule_) {
            warnedPastSchedule_ = true;
            IF_LOG("event scheduled in the past (when=%llu < now=%llu); "
                   "clamping to now (reported once)",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(now_));
        }
        when = now_;
    }
    return when;
}

std::uint32_t
EventQueue::linkNode(Cycle when, std::uint32_t wake_node)
{
    if (size_ == 0 || when < nextTick_)
        nextTick_ = when;
    const std::uint32_t idx = allocNode();
    Chain& chain = when - now_ < kWheelSize ? wheel_[when & kWheelMask]
                                            : farChain(when);
    appendNode(chain, idx);
    Node& node = pool_[idx];
    node.ev.when = when;
    node.ev.wakeNode = wake_node;
    return idx;
}

Event&
EventQueue::emplaceSlot(Cycle when, std::uint32_t wake_node)
{
    const std::uint32_t idx = linkNode(clampWhen(when), wake_node);
    ++nextSeq_;
    ++size_;
    return pool_[idx].ev;
}

std::uint32_t
EventQueue::growChunks()
{
    IF_COLD_ALLOC("retry-chunk growth: chunks are free-listed and "
                  "recycled, so new ones are only allocated until the "
                  "high-water mark of pending retry records is reached "
                  "during warmup");
    chunks_.push_back(std::make_unique<RetryChunk>());
    return static_cast<std::uint32_t>(chunks_.size() - 1);
}

void
EventQueue::reserveRetryChunks(std::uint32_t n)
{
    chunks_.reserve(chunks_.size() + n);
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint32_t c = growChunks();
        chunk(c).next = freeChunk_;
        freeChunk_ = c;
    }
}

std::uint32_t
EventQueue::takeChunk()
{
    const std::uint32_t c = freeChunk_;
    if (c == kNilNode)
        return growChunks();
    freeChunk_ = chunk(c).next;
    chunk(c).count = 0;
    chunk(c).next = kNilNode;
    return c;
}

void
EventQueue::linkBatch(std::uint32_t c, Cycle when)
{
    Event& ev = pool_[linkNode(when, kNoWakeNode)].ev;
    ev.kind = Event::Kind::RetryBatch;
    ev.batch = c;
}

void
EventQueue::jumpWriter()
{
    RetryChunk& w = chunk(writeChunk_);
    w.count = writeIdx_;
    w.next = runChunk_;
    writeChunk_ = runChunk_;
    writeIdx_ = 0;
}

RetryRecord&
EventQueue::writerSlot()
{
    if (writeIdx_ == RetryChunk::kRecords)
        jumpWriter();   // only an earlier chunk can be full
    return chunk(writeChunk_).recs[writeIdx_++];
}

bool
EventQueue::writerBehind() const
{
    if (writeChunk_ == runChunk_)
        return writeIdx_ < runRead_;
    return writeIdx_ < RetryChunk::kRecords || runRead_ > 0;
}

void
EventQueue::appendRetry(Cycle when, const RetryRecord& rec, bool carry)
{
    when = clampWhen(when);
    const bool adjacent = (openAtWriter_ || openTail_ != kNilNode) &&
                          openSeq_ == nextSeq_ && openWhen_ == when;
    RetryRecord* dst;
    if (carry && !runReopened_) {
        // First carry of the running batch: it reopens in place from
        // the running chunk on, linked after the adjacent open batch
        // or as a batch of its own.
        if (adjacent)
            chunk(openTail_).next = runChunk_;
        else
            linkBatch(runChunk_, when);
        runReopened_ = true;
        writeChunk_ = runChunk_;
        writeFor_ = runChunk_;
        writeIdx_ = 0;
        openAtWriter_ = true;
        openTail_ = kNilNode;
        openWhen_ = when;
        dst = &writerSlot();
    } else if (adjacent && openAtWriter_ && carry) {
        if (writeFor_ != runChunk_) {
            // First carry out of this chunk: pack what is left of it
            // into the writer's chunk only if it all fits, so no full
            // chunk is ever shifted.
            writeFor_ = runChunk_;
            if (writeChunk_ != runChunk_ &&
                writeIdx_ + chunk(runChunk_).count - runRead_ >
                    RetryChunk::kRecords) {
                jumpWriter();
            }
        }
        dst = &writerSlot();
    } else if (adjacent && openAtWriter_ && writerBehind()) {
        dst = &writerSlot();
    } else {
        if (!adjacent || openAtWriter_) {
            // A new batch: nothing adjacent, or an outside record the
            // writer cannot take yet (the running record holds its
            // slot).
            openTail_ = takeChunk();
            openAtWriter_ = false;
            openWhen_ = when;
            linkBatch(openTail_, when);
        } else if (chunk(openTail_).count == RetryChunk::kRecords) {
            const std::uint32_t c = takeChunk();
            chunk(openTail_).next = c;
            openTail_ = c;
        }
        RetryChunk& tail = chunk(openTail_);
        dst = &tail.recs[tail.count++];
    }
    if (dst != &rec)
        *dst = rec;
    ++nextSeq_;
    ++size_;
    openSeq_ = nextSeq_;
}

void
EventQueue::runRetryBatch(std::uint32_t head, Cycle when)
{
    IF_DBG_ASSERT(runChunk_ == kNilNode && "nested retry-batch run");
    if (openWhen_ == when) {
        openTail_ = kNilNode;   // a batch takes no appends once it runs
        openAtWriter_ = false;
    }
    runReopened_ = false;
    writeChunk_ = kNilNode;
    writeFor_ = kNilNode;
    for (runChunk_ = head; runChunk_ != kNilNode;) {
        RetryChunk& c = chunk(runChunk_);   // stable: chunks never move
        for (runRead_ = 0; runRead_ < c.count; ++runRead_) {
            RetryRecord& rec = c.recs[runRead_];
            --size_;
            ++executed_;
            if (rec.wakeNode != kNoWakeNode && wakeHook_)
                wakeHook_(wakeCtx_, rec.wakeNode, when);
            const Cycle again = rec.fn(rec.owner, rec);
            if (again != 0)
                appendRetry(now_ + again, rec, true);
        }
        // A chunk the writer never reached holds nothing carried.
        const std::uint32_t done = runChunk_;
        runChunk_ = c.next;
        if (done != writeChunk_) {
            c.next = freeChunk_;
            freeChunk_ = done;
        }
    }
    if (runReopened_) {
        // Seal the reopened batch's last chunk.
        RetryChunk& w = chunk(writeChunk_);
        w.count = writeIdx_;
        w.next = kNilNode;
        if (openAtWriter_) {
            openAtWriter_ = false;
            openTail_ = writeChunk_;
        }
    }
    runRead_ = 0;
    writeChunk_ = kNilNode;
    writeFor_ = kNilNode;
    writeIdx_ = 0;
}

Cycle
EventQueue::nextEventTick() const
{
    IF_DBG_ASSERT(size_ > 0 && "nextEventTick on an empty queue");
    // Records of the running batch still to run are due now.
    if (runChunk_ != kNilNode &&
        (runRead_ + 1 < chunk(runChunk_).count ||
         chunk(runChunk_).next != kNilNode)) {
        return now_;
    }
    Cycle t = nextTick_ < now_ ? now_ : nextTick_;
    const Cycle wheel_end = now_ + kWheelSize;
    const Cycle far_min =
        far_.empty() ? kNeverCycle : far_.begin()->first;
    for (; t < wheel_end && t < far_min; ++t) {
        if (!wheel_[t & kWheelMask].empty()) {
            nextTick_ = t;
            return t;
        }
    }
    // Only overflow events remain pending.
    IF_DBG_ASSERT(far_min != kNeverCycle);
    nextTick_ = far_min;
    return far_min;
}

void
EventQueue::advanceTo(Cycle tick)
{
    IF_HOT;
    IF_DBG_ASSERT(tick >= now_);
    while (size_ > 0) {
        const Cycle t = nextEventTick();
        if (t > tick)
            break;
        now_ = t;
        Chain& slot = wheel_[t & kWheelMask];
        // Far-scheduled events predate every wheel append for this tick
        // (the wheel only accepts a tick once now_ is within range, and
        // now_ is monotonic), so their chain goes first to preserve
        // insertion order.
        auto far_it = far_.find(t);
        if (far_it != far_.end()) {
            Chain farc = far_it->second;
            farPool_.push_back(far_.extract(far_it));
            if (!farc.empty()) {
                pool_[farc.tail].next = slot.head;
                if (slot.empty())
                    slot.tail = farc.tail;
                slot.head = farc.head;
            }
        }
        // Chain walk: each node is copied out and recycled before its
        // event runs, so callbacks appending same-tick events simply
        // extend the live chain (possibly reusing the node just freed)
        // and the walk picks them up in FIFO order.
        while (!slot.empty()) {
            const std::uint32_t idx = slot.head;
            slot.head = pool_[idx].next;
            if (slot.head == kNilNode)
                slot.tail = kNilNode;
            Event ev = pool_[idx].ev;   // memcpy: Event is trivial
            freeNode(idx);
            ++dispatched_;
            if (ev.kind == Event::Kind::RetryBatch) {
                // Counts, wakes and runs once per record.
                runRetryBatch(ev.batch, t);
                continue;
            }
            --size_;
            ++executed_;
            if (ev.wakeNode != kNoWakeNode && wakeHook_)
                wakeHook_(wakeCtx_, ev.wakeNode, ev.when);
            if (ev.kind == Event::Kind::MsgDelivery) {
                IF_DBG_ASSERT(msgDispatch_ && "message event with no dispatcher");
                msgDispatch_(msgCtx_, ev.sinkIdx, *ev.msg());
            } else {
                ev.invoke(ev.payload);
            }
        }
        nextTick_ = t + 1;
    }
    now_ = tick;
}

void
EventQueue::drain()
{
    while (size_ > 0)
        advanceTo(nextEventTick());
}

} // namespace invisifence
