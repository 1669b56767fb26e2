#include "core/invisifence.hh"

#include <algorithm>
#include "sim/annotations.hh"

#include "sim/log.hh"

namespace invisifence {

SpecConfig
SpecConfig::selective(Model m, std::uint32_t ckpts)
{
    SpecConfig c;
    c.model = m;
    c.continuous = false;
    c.numCheckpoints = ckpts;
    c.sbEntries = ckpts >= 2 ? 32 : 8;
    return c;
}

SpecConfig
SpecConfig::continuousMode(bool cov)
{
    SpecConfig c;
    c.model = Model::SC;    // continuous chunks enforce any model
    c.continuous = true;
    c.numCheckpoints = 2;
    c.sbEntries = 32;
    c.commitOnViolate = cov;
    c.maxWindowInsts = 0;   // chunking already bounds window length
    return c;
}

SpecConfig
SpecConfig::aso()
{
    SpecConfig c;
    c.model = Model::SC;
    c.continuous = false;
    c.numCheckpoints = 2;
    c.sbEntries = 0xffffff;     // SSB: no practical capacity limit
    c.unboundedSb = true;
    c.commitDrainPerStore = 1;  // drain one store per cycle into the L2
    c.nameOverride = "aso_sc";
    return c;
}

std::string
SpecConfig::name() const
{
    if (!nameOverride.empty())
        return nameOverride;
    if (continuous)
        return commitOnViolate ? "invisi_cont_cov" : "invisi_cont";
    std::string n = std::string("invisi_") + modelName(model);
    if (numCheckpoints >= 2)
        n += "_2ckpt";
    if (commitOnViolate)
        n += "_cov";
    return n;
}

SpeculativeImpl::SpeculativeImpl(const SpecConfig& cfg, Core& core,
                                 CacheAgent& agent)
    : ConsistencyImpl(cfg.name(), core, agent), cfg_(cfg),
      sb_(cfg.sbEntries)
{
    IF_DBG_ASSERT(cfg_.numCheckpoints >= 1 &&
           cfg_.numCheckpoints <= kMaxCheckpoints);
    if (cfg_.continuous)
        IF_DBG_ASSERT(cfg_.numCheckpoints == 2);
}

// ---------------------------------------------------------------------
// Checkpoint bookkeeping
// ---------------------------------------------------------------------

bool
SpeculativeImpl::hasOpenCkpt() const
{
    return !order_.empty() && !ckpts_[order_.back()].closed;
}

std::uint32_t
SpeculativeImpl::openCtx() const
{
    IF_DBG_ASSERT(hasOpenCkpt());
    return order_.back();
}

std::uint32_t
SpeculativeImpl::freeSlot() const
{
    for (std::uint32_t c = 0; c < cfg_.numCheckpoints; ++c) {
        if (!ckpts_[c].active)
            return c;
    }
    return kNoSpecCtx;
}

void
SpeculativeImpl::openCkpt()
{
    const std::uint32_t c = freeSlot();
    IF_DBG_ASSERT(c != kNoSpecCtx && "no free checkpoint slot");
    Ckpt& k = ckpts_[c];
    k = Ckpt{};
    k.active = true;
    k.snap = core_.retiredSnapshot();
    k.boundarySeq = core_.lastRetiredSeq();
    k.startedAt = core_.now();
    hotPush(order_, c);
    ++statSpeculations;
    core_.noteWork();
}

void
SpeculativeImpl::maybeCloseChunk()
{
    if (!speculating() || cfg_.numCheckpoints < 2)
        return;
    Ckpt& k = ckpts_[order_.back()];
    if (k.closed || k.retiredInsts < cfg_.minChunkSize)
        return;
    if (freeSlot() == kNoSpecCtx)
        return;
    k.closed = true;
    openCkpt();
}

// ---------------------------------------------------------------------
// Store routing (Section 3.2: speculative stores)
// ---------------------------------------------------------------------

SpeculativeImpl::StoreRoute
SpeculativeImpl::routeStore(Addr addr, bool spec, std::uint32_t ctx,
                            CacheAgent::BlockView* view_out) const
{
    const Addr blk = blockAlign(addr);
    const std::uint32_t label = spec ? ctx : kNonSpecCtx;

    // One resolution serves the held-entry scan, the writability check,
    // and (via view_out) doStore's direct hit.
    const CacheAgent::BlockView view =
        const_cast<CacheAgent&>(agent_).resolveBlock(blk);
    if (view_out)
        *view_out = view;

    bool any_block_entry = false;
    for (const auto& e : sb_.entries()) {
        if (e.blockAddr != blk)
            continue;
        if (e.speculative == spec && e.ctx == label)
            return StoreRoute::Merge;
        any_block_entry = true;
    }

    // Would a fresh entry need to be held behind an older checkpoint's
    // write to the same block?
    bool held = false;
    const CacheArray::Line line = view.l1;
    if (spec && line) {
        for (std::uint32_t o = 0; o < cfg_.numCheckpoints; ++o) {
            if (o != ctx && ckpts_[o].active && line.specWritten(o))
                held = true;
        }
    }

    if (any_block_entry) {
        if (sb_.full())
            return StoreRoute::Full;
        return held ? StoreRoute::NewEntryHeld : StoreRoute::NewEntry;
    }

    if (view.writable()) {
        const bool dirty_nonspec =
            line && line.dirty() && !line.specWrittenAny();
        if (spec && (dirty_nonspec || held)) {
            // First speculative store to a dirty block goes to the SB
            // while the cleaning writeback preserves the old value; a
            // second-checkpoint store to a first-checkpoint block waits
            // in the SB for the older commit.
            if (sb_.full())
                return StoreRoute::Full;
            return held ? StoreRoute::NewEntryHeld : StoreRoute::NewEntry;
        }
        return StoreRoute::DirectHit;
    }

    return sb_.full() ? StoreRoute::Full : StoreRoute::NewEntry;
}

RetireCheck
SpeculativeImpl::checkStoreCapacity(Addr addr, bool spec,
                                    std::uint32_t ctx, bool memoize,
                                    InstSeq seq)
{
    CacheAgent::BlockView view;
    const StoreRoute route = routeStore(addr, spec, ctx, &view);
    if (route == StoreRoute::Full)
        return {false, StallKind::SbFull};
    if (memoize) {
        routeMemoSeq_ = seq;
        routeMemoSpec_ = spec;
        routeMemoCtx_ = ctx;
        routeMemoRoute_ = route;
        routeMemoView_ = view;
    }
    return {true, StallKind::None};
}

void
SpeculativeImpl::doStore(Addr addr, std::uint64_t value, bool spec,
                         std::uint32_t ctx, InstSeq seq)
{
    CacheAgent::BlockView view;
    StoreRoute route;
    if (routeMemoSeq_ == seq && routeMemoSpec_ == spec &&
        routeMemoCtx_ == ctx) {
        route = routeMemoRoute_;
        view = routeMemoView_;
        IF_DBG_ASSERT(route == routeStore(addr, spec, ctx) &&
               "memoized store route drifted from a fresh resolution");
    } else {
        route = routeStore(addr, spec, ctx, &view);
    }
    routeMemoSeq_ = 0;
    const std::uint32_t label = spec ? ctx : kNonSpecCtx;
    switch (route) {
      case StoreRoute::DirectHit:
        agent_.writeWordL1(view, addr, value, spec, spec ? ctx : 0);
        break;
      case StoreRoute::Merge:
      case StoreRoute::NewEntry:
      case StoreRoute::NewEntryHeld: {
        const auto res =
            sb_.store(addr, kWordBytes, value, spec, label, seq);
        IF_DBG_ASSERT(res != CoalescingStoreBuffer::StoreResult::Full);
        (void)res;
        if (route == StoreRoute::NewEntryHeld) {
            for (auto& e : sb_.entries()) {
                if (e.blockAddr == blockAlign(addr) &&
                    e.speculative == spec && e.ctx == label) {
                    e.held = true;
                }
            }
        }
        break;
      }
      case StoreRoute::Full:
        IF_PANIC("store routed to a full store buffer");
    }
    if (spec)
        ++ckpts_[ctx].storeCount;
}

// ---------------------------------------------------------------------
// Retirement rules
// ---------------------------------------------------------------------

RetireCheck
SpeculativeImpl::conventionalCanRetire(RobEntry& entry)
{
    const Addr addr = entry.inst.addr;
    switch (entry.inst.type) {
      case OpType::Alu:
      case OpType::Nop:
      case OpType::Halt:
        return {true, StallKind::None};

      case OpType::Load:
        if (cfg_.model == Model::SC && !sb_.empty())
            return {false, StallKind::SbDrain};
        return {true, StallKind::None};

      case OpType::Store:
        if (cfg_.model != Model::RMO) {
            // The coalescing SB is unordered: under SC/TSO a store may
            // only retire non-speculatively when no older store is
            // pending (this is exactly the paper's speculation trigger).
            if (!sb_.empty())
                return {false, StallKind::SbDrain};
            return {true, StallKind::None};
        }
        // RMO: stores are unordered; only capacity can stall them.
        if (sb_.containsBlock(addr) || agent_.l1Writable(addr) ||
            !sb_.full()) {
            return {true, StallKind::None};
        }
        return {false, StallKind::SbFull};

      case OpType::Cas:
      case OpType::FetchAdd: {
        const bool order_ok =
            cfg_.model == Model::RMO ? !sb_.containsBlock(addr)
                                     : sb_.empty();
        if (!order_ok)
            return {false, StallKind::SbDrain};
        if (!agent_.l1Writable(addr)) {
            if (!agent_.fetchOutstanding(addr))
                agent_.request(addr, true);
            return {false, StallKind::SbDrain};
        }
        return {true, StallKind::None};
      }

      case OpType::Fence:
        if (cfg_.model == Model::SC)
            return {true, StallKind::None};
        if (cfg_.model == Model::TSO && !entry.inst.fullFence)
            return {true, StallKind::None};
        if (!sb_.empty())
            return {false, StallKind::SbDrain};
        return {true, StallKind::None};
    }
    return {true, StallKind::None};
}

RetireCheck
SpeculativeImpl::canRetire(RobEntry& entry)
{
    const Addr addr = entry.inst.addr;

    // Forward progress after an abort: complete one instruction under
    // the strictest non-speculative rules before speculating again.
    if (needNonSpecProgress_) {
        IF_DBG_ASSERT(!speculating());
        switch (entry.inst.type) {
          case OpType::Alu:
          case OpType::Nop:
          case OpType::Halt:
            return {true, StallKind::None};
          case OpType::Load:
          case OpType::Fence:
            if (!sb_.empty())
                return {false, StallKind::SbDrain};
            return {true, StallKind::None};
          case OpType::Store:
          case OpType::Cas:
          case OpType::FetchAdd:
            if (!sb_.empty())
                return {false, StallKind::SbDrain};
            if (!agent_.l1Writable(addr)) {
                if (!agent_.fetchOutstanding(addr))
                    agent_.request(addr, true);
                return {false, StallKind::SbDrain};
            }
            return {true, StallKind::None};
        }
    }

    const bool will_write =
        entry.inst.type == OpType::Store ||
        entry.inst.type == OpType::FetchAdd ||
        (entry.inst.type == OpType::Cas &&
         entry.result == entry.inst.expect);

    if (commitPressure_ && speculating()) {
        // A deferred fill needs the speculation gone: stall retirement
        // until the drain completes and the commit fires.
        return {false, StallKind::SbDrain};
    }

    // Only a plain store may memoize its route: nothing runs between
    // its capacity check here and doStore in onRetire (atomics run
    // mark_read first, which can install lines and change the route).
    const bool memo_ok = entry.inst.type == OpType::Store;

    if (cfg_.continuous || speculating()) {
        // Everything retires into the current speculation.
        if (!hasOpenCkpt()) {
            if (freeSlot() == kNoSpecCtx)
                return {false, StallKind::SbDrain};  // commit backpressure
            openCkpt();
        }
        if (will_write) {
            return checkStoreCapacity(addr, true, openCtx(), memo_ok,
                                      entry.seq);
        }
        return {true, StallKind::None};
    }

    // Selective, not currently speculating: conventional rules; an
    // ordering stall initiates speculation instead (Section 4.1).
    // RMO plain stores shortcut through the route computation, which
    // answers exactly the conventional question (ok unless no merge
    // target, no write permission, and no free entry — i.e. Full; RMO
    // stores never stall for ordering) and memoizes the resolution for
    // doStore.
    if (memo_ok && cfg_.model == Model::RMO)
        return checkStoreCapacity(addr, false, kNonSpecCtx, true,
                                  entry.seq);
    RetireCheck conv = conventionalCanRetire(entry);
    if (conv.ok)
        return conv;
    if (conv.stall == StallKind::SbDrain) {
        openCkpt();
        if (will_write) {
            return checkStoreCapacity(addr, true, openCtx(), memo_ok,
                                      entry.seq);
        }
        return {true, StallKind::None};
    }
    return conv;   // SB-full capacity stalls gain nothing from speculating
}

void
SpeculativeImpl::onRetire(RobEntry& entry)
{
    const bool spec = speculating();
    const std::uint32_t ctx = spec ? openCtx() : kNonSpecCtx;
    const Addr addr = entry.inst.addr;

    // Selective mode marks speculatively-read bits at retirement; the
    // block is local (any invalidation would have squashed the load via
    // the load-queue snoop), but it may have slipped into the victim
    // cache, in which case it is pulled back instantly.
    const auto mark_read = [&]() {
        if (!spec)
            return true;
        // Continuous mode normally marked the bit at execution; loads
        // that executed before a chunk was open retire unmarked and
        // must be marked here, or the violation would go undetected.
        if (cfg_.continuous && entry.specMarked)
            return true;
        if (agent_.markSpecReadIfPresent(addr, ctx))
            return true;
        if (!agent_.tryInstantL1Install(addr)) {
            ++statMarkFallbacks;
            abortAll();
            return false;
        }
        agent_.setSpecRead(addr, ctx);
        return true;
    };

    switch (entry.inst.type) {
      case OpType::Load:
        if (!mark_read())
            return;
        break;
      case OpType::Store:
        doStore(addr, entry.inst.value, spec, ctx, entry.seq);
        break;
      case OpType::Cas:
        if (!mark_read())
            return;
        if (entry.result == entry.inst.expect) {
            if (spec)
                doStore(addr, entry.inst.value, true, ctx, entry.seq);
            else
                agent_.writeWordL1(addr, entry.inst.value, false, 0);
        }
        break;
      case OpType::FetchAdd:
        if (!mark_read())
            return;
        if (spec) {
            doStore(addr, entry.result + entry.inst.value, true, ctx,
                    entry.seq);
        } else {
            agent_.writeWordL1(addr, entry.result + entry.inst.value,
                               false, 0);
        }
        break;
      default:
        break;
    }

    if (spec) {
        ++ckpts_[ctx].retiredInsts;
        maybeCloseChunk();
        // Bounded windows: once the speculation is long enough (or its
        // L1 footprint large enough) and no further checkpoint is
        // available, push it toward commit before it overflows the L1.
        const bool too_long =
            cfg_.maxWindowInsts != 0 && hasOpenCkpt() &&
            ckpts_[openCtx()].retiredInsts >= cfg_.maxWindowInsts;
        const bool too_big =
            cfg_.specFootprintCap != 0 &&
            agent_.specFootprint() >= cfg_.specFootprintCap;
        if ((too_long || too_big) && freeSlot() == kNoSpecCtx) {
            commitPressure_ = true;
            for (const std::uint32_t c : order_)
                ckpts_[c].closed = true;
        }
    } else {
        needNonSpecProgress_ = false;
    }
}

std::optional<std::uint64_t>
SpeculativeImpl::forwardStore(Addr addr) const
{
    return sb_.forward(addr);
}

void
SpeculativeImpl::onLoadExecuted(RobEntry& entry)
{
    // Continuous mode marks speculatively-read bits at execution
    // (Section 4.2), which subsumes load-queue snooping. Loads whose
    // value came from the store buffer (block absent) need no bit: their
    // producing store is part of the same atomic commit.
    if (!cfg_.continuous)
        return;
    // Open the first chunk lazily so even the earliest loads execute
    // inside a speculation (the paper's continuous chunks start at
    // cycle zero); when no slot is free the retirement-time backstop
    // in onRetire marks the bit instead.
    if (!hasOpenCkpt()) {
        if (needNonSpecProgress_ || commitPressure_ ||
            freeSlot() == kNoSpecCtx) {
            return;
        }
        openCkpt();
    }
    const Addr addr = entry.inst.addr;
    const std::uint32_t ctx = openCtx();
    if (!agent_.markSpecReadIfPresent(addr, ctx))
        return;
    entry.specMarked = true;
    entry.specCtx = ctx;
}

bool
SpeculativeImpl::routeCycles(StallKind kind, std::uint64_t n)
{
    if (!speculating())
        return false;
    ckpts_[order_.back()].pendingAcct.add(kind, n);
    return true;
}

void
SpeculativeImpl::onIdle()
{
    for (const std::uint32_t c : order_) {
        if (!ckpts_[c].closed) {
            ckpts_[c].closed = true;
            core_.noteWork();
        }
    }
}

Cycle
SpeculativeImpl::nextWorkAt() const
{
    // A CoV deferral window re-probes the deferred external requests
    // (bumping conflict/deferral counters) every cycle: never skip while
    // armed. Everything else is either event-driven or waits on the ASO
    // commit-drain deadline.
    if (covArmed_)
        return core_.now() + 1;
    if (!order_.empty()) {
        const Ckpt& k = ckpts_[order_.front()];
        if (k.committing) {
            return k.commitDoneAt <= core_.now() ? core_.now() + 1
                                                 : k.commitDoneAt;
        }
    }
    return kNeverCycle;
}

void
SpeculativeImpl::accrueQuiescentCycles(std::uint64_t n)
{
    if (speculating())
        statCyclesSpeculating += n;
}

bool
SpeculativeImpl::quiesced() const
{
    return !speculating() && sb_.empty() && cleaningPending_.empty();
}

void
SpeculativeImpl::dumpLiveness(std::FILE* out) const
{
    std::fprintf(out,
                 "    impl %s sb=%zu/%u ckpts=%zu cleaning=%zu "
                 "commitPressure=%d covArmed=%d\n",
                 name_.c_str(), sb_.size(), sb_.capacity(), order_.size(),
                 cleaningPending_.size(), commitPressure_ ? 1 : 0,
                 covArmed_ ? 1 : 0);
    for (const std::uint32_t ctx : order_) {
        const Ckpt& k = ckpts_[ctx];
        std::fprintf(out,
                     "      ckpt ctx=%u closed=%d committing=%d "
                     "stores=%llu startedAt=%llu\n",
                     ctx, k.closed ? 1 : 0, k.committing ? 1 : 0,
                     static_cast<unsigned long long>(k.storeCount),
                     static_cast<unsigned long long>(k.startedAt));
    }
    for (std::size_t i = 0; i < sb_.entries().size(); ++i) {
        const CoalescingStoreBuffer::Entry& e = sb_.entries()[i];
        std::fprintf(out,
                     "      sb[%zu] blk=%llx spec=%d ctx=%u "
                     "fillRequested=%d held=%d waitingFill=%d\n",
                     i, static_cast<unsigned long long>(e.blockAddr),
                     e.speculative ? 1 : 0, e.ctx, e.fillRequested ? 1 : 0,
                     e.held ? 1 : 0, e.waitingFill ? 1 : 0);
    }
}

// ---------------------------------------------------------------------
// Drain, commit, abort
// ---------------------------------------------------------------------

bool
SpeculativeImpl::anyNonSpecSbEntry() const
{
    for (const auto& e : sb_.entries()) {
        if (!e.speculative)
            return true;
    }
    return false;
}

bool
SpeculativeImpl::robHasMarkedLoads(std::uint32_t ctx) const
{
    // Only continuous mode marks speculatively-read bits at execution
    // (onLoadExecuted returns early otherwise), so the selective modes
    // can skip the window scan on every commit attempt outright.
    if (!cfg_.continuous)
        return false;
    const Rob& rob = core_.rob();
    for (std::size_t i = 0; i < rob.size(); ++i) {
        const RobEntry& e = rob.at(i);
        if (e.specMarked && e.specCtx == ctx)
            return true;
    }
    return false;
}

bool
SpeculativeImpl::commitConditionsMet(std::uint32_t ctx,
                                     bool ignore_closed) const
{
    const Ckpt& k = ckpts_[ctx];
    if (cfg_.continuous && !k.closed && !ignore_closed)
        return false;
    if (anyNonSpecSbEntry())
        return false;   // older (pre-speculation) stores must complete
    if (!sb_.emptyOfCtx(ctx))
        return false;
    if (robHasMarkedLoads(ctx))
        return false;   // continuous: all the chunk's loads must retire
    return true;
}

bool
SpeculativeImpl::tryCommitOldest(bool force_close)
{
    const std::uint32_t c = order_.front();
    Ckpt& k = ckpts_[c];

    if (k.committing) {
        // ASO: the SSB drain into the L2 is in progress; the external
        // interface stays blocked until it finishes. Commit first, THEN
        // unblock: the replayed external requests must observe the
        // committed state (and may abort the remaining checkpoints).
        if (core_.now() < k.commitDoneAt)
            return false;
        finishCommit(c);
        agent_.setExternalBlocked(false);
        return true;
    }

    if (!commitConditionsMet(c, force_close))
        return false;

    if (cfg_.commitDrainPerStore > 0 && k.storeCount > 0) {
        k.committing = true;
        k.commitDoneAt =
            core_.now() + k.storeCount * cfg_.commitDrainPerStore;
        agent_.setExternalBlocked(true);
        core_.noteWork();
        return false;
    }

    // INVISIFENCE: constant-time commit by flash-clearing the bits.
    finishCommit(c);
    return true;
}

void
SpeculativeImpl::finishCommit(std::uint32_t ctx)
{
    Ckpt& k = ckpts_[ctx];
    agent_.flashCommit(ctx);
    core_.breakdown().merge(k.pendingAcct);
    statSpecRetired += k.retiredInsts;
    ++statCommits;
    k = Ckpt{};
    IF_DBG_ASSERT(!order_.empty() && order_.front() == ctx);
    order_.erase(order_.begin());
    for (auto& e : sb_.entries())
        e.held = false;
    core_.noteWork();
}

void
SpeculativeImpl::abortAll()
{
    IF_DBG_ASSERT(speculating());
    ++statAborts;
    const ProgSnapshot snap = ckpts_[order_.front()].snap;
    const InstSeq boundary = ckpts_[order_.front()].boundarySeq;
    bool was_blocked = false;
    for (const std::uint32_t c : order_) {
        Ckpt& k = ckpts_[c];
        was_blocked |= k.committing;
        agent_.flashAbort(c);
        core_.breakdown().violation += k.pendingAcct.total();
        statAbortedRetired += k.retiredInsts;
        k = Ckpt{};
    }
    order_.clear();
    sb_.flashInvalidateSpeculative();
    cleaningPending_.clear();
    core_.rollbackTo(snap, boundary);
    needNonSpecProgress_ = true;
    covArmed_ = false;
    commitPressure_ = false;
    // Unblock only after all speculative state is gone: the replayed
    // external requests must not re-enter the abort path.
    if (was_blocked)
        agent_.setExternalBlocked(false);
    agent_.serveDeferred();
}

bool
SpeculativeImpl::cleaningPendingContains(Addr block) const
{
    return std::find(cleaningPending_.begin(), cleaningPending_.end(),
                     block) != cleaningPending_.end();
}

void
SpeculativeImpl::cleaningPendingErase(Addr block)
{
    auto it = std::find(cleaningPending_.begin(), cleaningPending_.end(),
                        block);
    if (it != cleaningPending_.end()) {
        *it = cleaningPending_.back();
        cleaningPending_.pop_back();
    }
}

void
SpeculativeImpl::cleanedThunk(void* owner, std::uint64_t block)
{
    static_cast<SpeculativeImpl*>(owner)->cleaningPendingErase(block);
}

void
SpeculativeImpl::onL1Install(Addr block)
{
    // A dormant store-buffer entry (waitingFill) skips its per-tick
    // writability probe; this hook is the only transition that can
    // make its block writable, so wake matching entries here. The SB
    // is small (paper: 8 entries), so the scan is cheaper than the
    // tag probes it saves.
    for (auto& e : sb_.entries()) {
        if (e.waitingFill && e.blockAddr == block)
            e.waitingFill = false;
    }
}

void
SpeculativeImpl::drainStoreBuffer()
{
    int drained = 0;
    drainSeen_.clear();   // capacity retained; the SB is small
    auto& entries = sb_.entries();
    for (std::size_t i = 0; i < entries.size();) {
        auto& e = entries[i];
        // Only the oldest entry per block may drain (checkpoint order).
        const bool first = std::find(drainSeen_.begin(), drainSeen_.end(),
                                     e.blockAddr) == drainSeen_.end();
        if (first)
            hotPush(drainSeen_, e.blockAddr);
        if (!first || e.held || e.waitingFill) {
            ++i;
            continue;
        }
        // One resolution per entry serves the writability check, the
        // cleaning-writeback predicate, and the final masked write.
        const CacheAgent::BlockView view =
            agent_.resolveBlock(e.blockAddr);
        if (!view.writable()) {
            // Issue the write fetch; re-issue if another core stole the
            // permission before this entry drained.
            if (!e.fillRequested ||
                !agent_.fetchOutstanding(e.blockAddr)) {
                if (agent_.request(e.blockAddr, true)) {
                    e.fillRequested = true;
                    e.fullStallNoted = false;
                    core_.noteWork();
                } else if (!e.fullStallNoted) {
                    // MSHRs exhausted: count the stall once per
                    // episode, not per retry (fast-forward skips the
                    // retry cycles the legacy loop burns).
                    e.fullStallNoted = true;
                    ++agent_.mshrs().statFullStalls;
                }
            }
            // While a fetch is in flight the per-tick probe is dead
            // weight: only installL1 can make the block writable, and
            // its onL1Install hook wakes the entry that same event.
            // (A pending local fill keeps probing: the legacy loop
            // re-requests it every tick, which touches LRU state.)
            if (e.fillRequested && agent_.fetchOutstanding(e.blockAddr))
                e.waitingFill = true;
            ++i;
            continue;
        }
        if (e.speculative) {
            const CacheArray::Line line = view.l1;
            if (line && line.dirty() && !line.specWrittenAny()) {
                // Preserve the pre-speculative value before the first
                // speculative byte lands in the L1 (Section 3.2).
                if (!cleaningPendingContains(e.blockAddr)) {
                    hotPush(cleaningPending_, e.blockAddr);
                    ++statCleanings;
                    core_.noteWork();
                    agent_.cleanWriteback(
                        e.blockAddr,
                        FillWaiter{&cleanedThunk, this, e.blockAddr});
                }
                ++i;
                continue;
            }
            if (cleaningPendingContains(e.blockAddr)) {
                ++i;
                continue;
            }
        }
        if (drained >= 2) {
            ++i;
            continue;
        }
        agent_.writeMaskedL1(view, e.data, e.speculative,
                             e.speculative ? e.ctx : 0);
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
        ++drained;
        core_.noteWork();
    }
}

void
SpeculativeImpl::tick()
{
    IF_HOT;
    if (speculating())
        ++statCyclesSpeculating;

    drainStoreBuffer();

    if (covArmed_ && core_.now() >= covDeadline_) {
        ++statCovTimeouts;
        if (speculating()) {
            abortAll();
        } else {
            covArmed_ = false;
            agent_.serveDeferred();
        }
        return;
    }

    while (speculating() && tryCommitOldest(covArmed_ || commitPressure_)) {
    }
    if (commitPressure_ && !speculating()) {
        // Behavior-relevant transition (continuous mode may open chunks
        // again): visible to the fast-forward quiescence detector.
        commitPressure_ = false;
        core_.noteWork();
    }

    if (covArmed_) {
        agent_.serveDeferred();
        if (!agent_.hasDeferred()) {
            covArmed_ = false;
            ++statCovCommits;
        }
    }
}

// ---------------------------------------------------------------------
// Coherence listener
// ---------------------------------------------------------------------

ConsistencyImpl::ExtAction
SpeculativeImpl::onSpecConflict(Addr block, bool wants_write)
{
    (void)block;
    (void)wants_write;
    ++statConflicts;
    if (!speculating()) {
        // Bits can linger only transiently; treat as resolved.
        return ExtAction::Proceed;
    }
    if (cfg_.commitOnViolate) {
        if (!covArmed_) {
            covArmed_ = true;
            covDeadline_ = core_.now() + cfg_.covTimeout;
            ++statCovDeferrals;
        }
        return ExtAction::Defer;
    }
    abortAll();
    return ExtAction::Proceed;
}

bool
SpeculativeImpl::resolveSpecEviction(Addr block)
{
    (void)block;
    if (!speculating())
        return true;   // stale bits cannot exist; nothing to resolve
    // A refused fill retries every 10 cycles. Every input of the
    // verdict (SB entries, ROB specMarked entries, order_) changes only
    // together with a core noteWork(), so an unchanged work version
    // means an unchanged refusal: replay its side effects, skip the
    // scans.
    if (core_.workVersion() != refusedAtVersion_ && allCkptsReady()) {
        while (speculating())
            finishCommit(order_.front());
        return true;
    }
    // Otherwise the agent defers the fill while the store buffer drains
    // (Section 4.1: wait for the drain, then commit).
    commitPressure_ = true;
    for (const std::uint32_t c : order_)
        ckpts_[c].closed = true;
    core_.noteWork();
    refusedAtVersion_ = core_.workVersion();
    return false;
}

bool
SpeculativeImpl::allCkptsReady() const
{
    // Cheapest test first: every store-buffer check before any ROB
    // scan, and stop at the first checkpoint that is not ready.
    if (anyNonSpecSbEntry())
        return false;
    for (const std::uint32_t c : order_) {
        if (!sb_.emptyOfCtx(c))
            return false;
    }
    for (const std::uint32_t c : order_) {
        if (robHasMarkedLoads(c))
            return false;
    }
    return true;
}

void
SpeculativeImpl::resolveSpecEvictionHard(Addr block)
{
    (void)block;
    if (speculating())
        abortAll();
}

Breakdown
SpeculativeImpl::pendingBreakdown() const
{
    Breakdown b;
    for (const std::uint32_t c : order_)
        b.merge(ckpts_[c].pendingAcct);
    return b;
}

void
SpeculativeImpl::registerStats(StatRegistry& reg,
                               const std::string& prefix) const
{
    reg.registerStat(prefix + ".speculations", &statSpeculations);
    reg.registerStat(prefix + ".commits", &statCommits);
    reg.registerStat(prefix + ".aborts", &statAborts);
    reg.registerStat(prefix + ".cycles_speculating",
                     &statCyclesSpeculating);
    reg.registerStat(prefix + ".spec_retired", &statSpecRetired);
    reg.registerStat(prefix + ".aborted_retired", &statAbortedRetired);
    reg.registerStat(prefix + ".conflicts", &statConflicts);
    reg.registerStat(prefix + ".cov_deferrals", &statCovDeferrals);
    reg.registerStat(prefix + ".cov_commits", &statCovCommits);
    reg.registerStat(prefix + ".cov_timeouts", &statCovTimeouts);
    reg.registerStat(prefix + ".cleanings", &statCleanings);
    // Cycles pending in each slot (reset to Ckpt{} on commit or abort):
    // with the core's ".cycles.*" they account every elapsed cycle.
    for (std::uint32_t c = 0; c < cfg_.numCheckpoints; ++c) {
        const std::string slot = prefix + ".ckpt" + std::to_string(c);
        const Breakdown& b = ckpts_[c].pendingAcct;
        reg.registerStat(slot + ".cycles.busy", &b.busy);
        reg.registerStat(slot + ".cycles.other", &b.other);
        reg.registerStat(slot + ".cycles.sb_full", &b.sbFull);
        reg.registerStat(slot + ".cycles.sb_drain", &b.sbDrain);
        reg.registerStat(slot + ".cycles.violation", &b.violation);
    }
}

} // namespace invisifence
