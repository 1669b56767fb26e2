#include "cpu/core.hh"

#include "sim/annotations.hh"

#include "cpu/consistency.hh"
#include "sim/log.hh"

namespace invisifence {

namespace {

/** Rob::Mask::Pending membership: execute-stage work remains. */
bool
pendingState(const RobEntry& e)
{
    return (e.status == RobEntry::Status::Issued && e.valueBound) ||
           (e.status == RobEntry::Status::Dispatched &&
            isLoadLike(e.inst.type));
}

/** Rob::Mask::Bound membership: a value-bound load-like. */
bool
boundState(const RobEntry& e)
{
    return e.valueBound && isLoadLike(e.inst.type);
}

} // namespace

Core::Core(NodeId id, const CoreParams& params, CacheAgent& agent,
           ThreadProgram& program)
    : id_(id), params_(params), agent_(agent), program_(program),
      rob_(params.robSize)
{
    program_.snapshotTo(retiredSnap_);
    // >= 4x the window so live words (<= robSize) plus stale slots
    // leave linear probing short; power of two for mask indexing.
    std::uint32_t slots = 4;
    while (slots < params.robSize * 4)
        slots *= 2;
    wordMap_.resize(slots);
    wordMapMask_ = slots - 1;
}

InstSeq
Core::wordMapInsert(Addr word, InstSeq seq)
{
    if (wordMapOccupied_ * 2 > wordMap_.size())
        wordMapRebuild();   // shed stale slots before probing lengthens
    return wordMapInsertRaw(word, seq);
}

InstSeq
Core::wordMapInsertRaw(Addr word, InstSeq seq)
{
    std::size_t i = wordMapHome(word);
    while (true) {
        WordSlot& slot = wordMap_[i];
        if (slot.seq == 0) {
            slot.word = word;
            slot.seq = seq;
            ++wordMapOccupied_;
            return 0;
        }
        if (slot.word == word) {
            const InstSeq prev = slot.seq;
            slot.seq = seq;
            return prev;
        }
        i = (i + 1) & wordMapMask_;
    }
}

InstSeq
Core::wordMapYoungest(Addr word) const
{
    std::size_t i = wordMapHome(word);
    while (true) {
        const WordSlot& slot = wordMap_[i];
        if (slot.seq == 0)
            return 0;
        if (slot.word == word)
            return slot.seq;
        i = (i + 1) & wordMapMask_;
    }
}

void
Core::wordMapRebuild()
{
    for (WordSlot& slot : wordMap_)
        slot = WordSlot{};
    wordMapOccupied_ = 0;
    // Oldest to youngest so each word's slot ends at its youngest
    // store; prevSameWord links are per-entry and stay as dispatched.
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const RobEntry& e = rob_.at(i);
        if (isStoreLike(e.inst.type))
            wordMapInsertRaw(wordAlign(e.inst.addr), e.seq);
    }
}

void
Core::setConsistency(ConsistencyImpl* impl)
{
    impl_ = impl;
    agent_.setListener(impl);
}

bool
Core::done() const
{
    return halted_ && rob_.empty() && impl_->quiesced();
}

void
Core::tick(Cycle now)
{
    IF_HOT;
    IF_DBG_ASSERT(impl_ && "core ticked without a consistency implementation");
    now_ = now;
    ++statCycles;
    impl_->tick();
    retireStage();
    executeStage();
    dispatchStage();
    if (halted_ && rob_.empty())
        impl_->onIdle();
}

void
Core::journalAppend(const RobEntry& h)
{
    IF_COLD_ALLOC("retire journal: diagnostic capture mode "
                  "(journalEnabled_), off on production runs; while "
                  "enabled the journal grows with retired memory ops "
                  "by design");
    journal_.push_back({h.seq, h.inst.type, h.inst.addr, h.result});
}

void
Core::retireStage()
{
    std::uint32_t retired = 0;
    StallKind stall = StallKind::Other;

    while (retired < params_.width && !rob_.empty()) {
        RobEntry& head = rob_.head();
        if (head.status != RobEntry::Status::Done) {
            stall = StallKind::Other;
            break;
        }
        RetireCheck chk = impl_->canRetire(head);
        if (!chk.ok) {
            stall = chk.stall;
            break;
        }

        // onRetire may, in rare paths (forced eviction of a speculative
        // block while marking a read bit), abort the speculation and
        // flush the ROB under us; detect that and void the retirement.
        const Instruction inst = head.inst;
        const std::uint64_t epoch_before = flushEpoch_;

        impl_->onRetire(head);

        if (flushEpoch_ != epoch_before)
            break;

        RobEntry& h = rob_.head();
        const bool mispredict =
            h.inst.feedsBack && h.result != h.inst.predictedResult;

        retiredSnap_ = rob_.snapAt(0);
        lastRetiredSeq_ = h.seq;
        if (journalEnabled_ && isMemOp(h.inst.type))
            journalAppend(h);
        switch (inst.type) {
          case OpType::Load: ++statLoads; break;
          case OpType::Store: ++statStores; break;
          case OpType::Cas:
          case OpType::FetchAdd: ++statAtomics; break;
          case OpType::Fence: ++statFences; break;
          default: break;
        }

        if (mispredict) {
            ++statMispredicts;
            program_.restoreFrom(rob_.snapAt(0));
            program_.setLastResult(h.result);
            program_.snapshotTo(retiredSnap_);
            halted_ = false;
            rob_.clear();
            recountRobStates();
        } else {
            const bool bound_load = boundState(h);
            rob_.popHead();   // drops the head's mask bits
            if (bound_load && rob_.none(Rob::Mask::Bound))
                boundLoadFilter_ = 0;   // cheap exact-reset point
        }
        ++retired;
        ++statRetired;
        // Bump per retirement, not once after the loop: the next
        // iteration's onRetire can consult consistency state keyed on
        // the work version (SpeculativeImpl's refusal memo), and this
        // retirement just removed a ROB entry.
        noteWork();
        if (mispredict)
            break;
    }

    const StallKind kind =
        retired > 0 ? StallKind::None
                    : (rob_.empty() && halted_ ? StallKind::Other : stall);
    lastStallKind_ = kind;
    if (!impl_->routeCycles(kind, 1))
        breakdown_.add(kind);
}

void
Core::recountRobStates()
{
    rob_.unmarkAll();
    boundLoadFilter_ = 0;
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const RobEntry& e = rob_.at(i);
        if (pendingState(e))
            rob_.mark(Rob::Mask::Pending, e);
        if (boundState(e)) {
            rob_.mark(Rob::Mask::Bound, e);
            boundLoadFilter_ |= blockFilterBit(e.inst.addr);
        }
    }
    wordMapRebuild();
}

#ifndef NDEBUG
void
Core::verifyRobMasks() const
{
    std::size_t pending = 0, bound = 0;
    for (std::size_t i = 0; i < rob_.size(); ++i) {
        const RobEntry& e = rob_.at(i);
        IF_DBG_ASSERT(rob_.marked(Rob::Mask::Pending, e) == pendingState(e) &&
                      "Pending slot mask drifted");
        IF_DBG_ASSERT(rob_.marked(Rob::Mask::Bound, e) == boundState(e) &&
                      "Bound slot mask drifted");
        if (pendingState(e))
            ++pending;
        if (boundState(e)) {
            ++bound;
            IF_DBG_ASSERT((boundLoadFilter_ & blockFilterBit(e.inst.addr)) &&
                   "bound-load filter missed a bound load");
        }
        if (isStoreLike(e.inst.type)) {
            // Every in-window store-like must be reachable on its
            // word's youngest-first CAM chain.
            InstSeq s = wordMapYoungest(wordAlign(e.inst.addr));
            while (s != 0 && s != e.seq) {
                const std::ptrdiff_t j = rob_.indexOf(s);
                IF_DBG_ASSERT(j >= 0 && "store CAM chain left the window "
                                 "before reaching a live store");
                s = rob_.at(static_cast<std::size_t>(j)).prevSameWord;
            }
            IF_DBG_ASSERT(s == e.seq && "store CAM chain missed a live store");
        }
    }
    // Equal counts rule out set bits on dead slots.
    IF_DBG_ASSERT(rob_.count(Rob::Mask::Pending) == pending &&
                  "Pending slot mask marks a dead slot");
    IF_DBG_ASSERT(rob_.count(Rob::Mask::Bound) == bound &&
                  "Bound slot mask marks a dead slot");
    IF_DBG_ASSERT((bound != 0 || boundLoadFilter_ == 0) &&
                  "bound-load filter not reset with an empty Bound mask");
}
#endif

void
Core::executeStage()
{
#ifndef NDEBUG
    verifyRobMasks();
#endif
    // Oldest first over the entries with execute work only; completions
    // and issues interleave in age order exactly as a full window scan
    // would (MSHR allocation and event order depend on it). A stalled
    // core with nothing in flight has an empty mask and visits nothing.
    std::uint32_t issued = 0;
    rob_.forEachMarked(Rob::Mask::Pending, [&](std::size_t i) {
        RobEntry& e = rob_.at(i);
        if (e.status == RobEntry::Status::Issued) {
            if (e.readyAt <= now_) {
                e.status = RobEntry::Status::Done;
                rob_.unmark(Rob::Mask::Pending, e);
                noteWork();
                if (isLoadLike(e.inst.type))
                    impl_->onLoadExecuted(e);
            }
        } else if (issued < params_.l1Ports && tryIssueLoad(i)) {
            ++issued;
            noteWork();
        }
        return true;
    });
}

Core::RobForward
Core::forwardFromRob(std::size_t idx, Addr addr) const
{
    RobForward fw;
    const Addr word = wordAlign(addr);
    for (std::size_t j = idx; j-- > 0;) {
        const RobEntry& f = rob_.at(j);
        if (!isStoreLike(f.inst.type) ||
            wordAlign(f.inst.addr) != word) {
            continue;
        }
        fw.producerSeq = f.seq;
        if (f.inst.type == OpType::Store) {
            fw.producerFound = true;
            fw.valueKnown = true;
            fw.value = f.inst.value;
            return fw;
        }
        if (f.inst.type == OpType::Cas) {
            // Resolved CAS: forward its new value on success, else it
            // wrote nothing and older producers are searched.
            if (f.status == RobEntry::Status::Done || f.valueBound) {
                if (f.result != f.inst.expect)
                    continue;
                fw.producerFound = true;
                fw.valueKnown = true;
                fw.value = f.inst.value;
                return fw;
            }
            // Unresolved: only a feedsBack CAS has a verified-at-retire
            // prediction we may rely on (a mispredict squashes us).
            if (f.inst.feedsBack) {
                if (f.inst.predictedResult != f.inst.expect)
                    continue;   // predicted fail: no write expected
                fw.producerFound = true;
                fw.valueKnown = true;
                fw.value = f.inst.value;
                return fw;
            }
            fw.producerFound = true;   // wait for the CAS to resolve
            return fw;
        }
        // FetchAdd: new value known only once the old value is bound.
        fw.producerFound = true;
        if (f.status == RobEntry::Status::Done || f.valueBound) {
            fw.valueKnown = true;
            fw.value = f.result + f.inst.value;
        }
        return fw;
    }
    return fw;
}

Core::RobForward
Core::forwardFromChain(std::size_t idx, Addr addr) const
{
    RobForward fw;
    const Addr word = wordAlign(addr);
    InstSeq s = wordMapYoungest(word);
    while (s != 0) {
        const std::ptrdiff_t at = rob_.indexOf(s);
        if (at < 0)
            break;   // chain head retired => all older matches retired
        const std::size_t j = static_cast<std::size_t>(at);
        const RobEntry& f = rob_.at(j);
        if (j >= idx) {
            // Younger than the load (dispatched after it): hop older.
            s = f.prevSameWord;
            continue;
        }
        IF_DBG_ASSERT(isStoreLike(f.inst.type) &&
               wordAlign(f.inst.addr) == word);
        fw.producerSeq = f.seq;
        if (f.inst.type == OpType::Store) {
            fw.producerFound = true;
            fw.valueKnown = true;
            fw.value = f.inst.value;
            return fw;
        }
        if (f.inst.type == OpType::Cas) {
            if (f.status == RobEntry::Status::Done || f.valueBound) {
                if (f.result != f.inst.expect) {
                    s = f.prevSameWord;   // failed CAS wrote nothing
                    continue;
                }
                fw.producerFound = true;
                fw.valueKnown = true;
                fw.value = f.inst.value;
                return fw;
            }
            if (f.inst.feedsBack) {
                if (f.inst.predictedResult != f.inst.expect) {
                    s = f.prevSameWord;   // predicted fail: no write
                    continue;
                }
                fw.producerFound = true;
                fw.valueKnown = true;
                fw.value = f.inst.value;
                return fw;
            }
            fw.producerFound = true;   // wait for the CAS to resolve
            return fw;
        }
        fw.producerFound = true;
        if (f.status == RobEntry::Status::Done || f.valueBound) {
            fw.valueKnown = true;
            fw.value = f.result + f.inst.value;
        }
        return fw;
    }
    return fw;
}

void
Core::bindLoadValue(RobEntry& entry, std::uint64_t value, Cycle ready)
{
    IF_DBG_ASSERT(entry.status == RobEntry::Status::Dispatched &&
           isLoadLike(entry.inst.type));
    entry.result = value;
    entry.valueBound = true;
    entry.status = RobEntry::Status::Issued;
    entry.readyAt = ready;
    rob_.mark(Rob::Mask::Bound, entry);   // stays Pending until readyAt
    boundLoadFilter_ |= blockFilterBit(entry.inst.addr);
}

bool
Core::tryIssueLoad(std::size_t idx)
{
    RobEntry& e = rob_.at(idx);
    const Addr addr = e.inst.addr;
    const Cycle hit_ready = now_ + agent_.params().l1Latency;

    // 1. Forward from an older, not-yet-retired store in the window,
    // via the word CAM (O(same-word matches), not O(window)).
    if (e.waitSeq != 0) {
        // A previous walk stopped at an unresolved older atomic. While
        // that producer is still in the window and unresolved, the walk
        // would repeat to the same verdict (dispatch only appends
        // younger entries; retirement would remove the producer first).
        const std::ptrdiff_t pi = rob_.indexOf(e.waitSeq);
        if (pi >= 0 && static_cast<std::size_t>(pi) < idx) {
            const RobEntry& p = rob_.at(static_cast<std::size_t>(pi));
            if (p.status != RobEntry::Status::Done && !p.valueBound) {
#ifndef NDEBUG
                const RobForward chk = forwardFromRob(idx, addr);
                IF_DBG_ASSERT(chk.producerFound && !chk.valueKnown &&
                       chk.producerSeq == e.waitSeq &&
                       "stale producer-wait memo");
#endif
                return false;
            }
        }
        e.waitSeq = 0;
    }
    const RobForward fw = forwardFromChain(idx, addr);
#ifndef NDEBUG
    {
        // The CAM walk must agree with the naive age-ordered scan.
        const RobForward oracle = forwardFromRob(idx, addr);
        IF_DBG_ASSERT(oracle.producerFound == fw.producerFound &&
               oracle.valueKnown == fw.valueKnown &&
               (!fw.producerFound ||
                oracle.producerSeq == fw.producerSeq) &&
               (!fw.valueKnown || oracle.value == fw.value) &&
               "store CAM diverged from the naive forwarding scan");
    }
#endif
    if (fw.producerFound) {
        if (!fw.valueKnown) {
            e.waitSeq = fw.producerSeq;
            return false;       // wait for the producer to resolve
        }
        bindLoadValue(e, fw.value, hit_ready);
        ++statLoadForwards;
        return true;
    }

    // 2. Forward from the store buffer.
    if (auto v = impl_->forwardStore(addr)) {
        bindLoadValue(e, *v, hit_ready);
        ++statLoadForwards;
        return true;
    }

    // 3. L1 hit (one combined readable-check + word read).
    std::uint64_t word = 0;
    if (agent_.tryReadL1(addr, &word)) {
        bindLoadValue(e, word, hit_ready);
        ++statL1LoadHits;
        // Atomics also want write permission; prefetch it.
        if (isAtomic(e.inst.type) && params_.storePrefetch &&
            !agent_.l1Writable(addr) && !e.prefetched) {
            e.prefetched = true;
            agent_.request(addr, true);
        }
        return true;
    }

    // 4. Miss: fetch the block (atomics fetch with write intent). The
    // waiter is a 24-byte {thunk, core, seq} record, not a 40-byte
    // heap-captured closure: the fill resolves the load back through
    // fillWakeThunk.
    const bool want_write = isAtomic(e.inst.type);
    const FillWaiter wake{&Core::fillWakeThunk, this, e.seq};
    const bool accepted = agent_.request(addr, want_write, wake);
    if (!accepted) {
        // MSHRs exhausted; retry next cycle.
        agent_.mshrs().noteFullStall(e.mshrStallNoted);
        return false;
    }
    e.mshrStallNoted = false;
    e.status = RobEntry::Status::Issued;
    e.valueBound = false;
    e.readyAt = ~Cycle{0};
    rob_.unmark(Rob::Mask::Pending, e);   // the fill wakes it
    ++statLoadMisses;
    return true;
}

void
Core::fillWakeThunk(void* owner, std::uint64_t arg)
{
    static_cast<Core*>(owner)->wakeLoad(arg);
}

void
Core::wakeLoad(InstSeq seq)
{
    const std::ptrdiff_t i = rob_.indexOf(seq);
    if (i < 0)
        return;   // squashed while the fill was in flight
    RobEntry& e = rob_.at(static_cast<std::size_t>(i));
    if (e.status != RobEntry::Status::Issued || e.valueBound)
        return;
    noteWork();
    std::uint64_t filled = 0;
    if (!agent_.tryReadL1(e.inst.addr, &filled)) {
        // The block was stolen before the (possibly deferred)
        // fill completed: replay the issue.
        e.status = RobEntry::Status::Dispatched;
        rob_.mark(Rob::Mask::Pending, e);
        return;
    }
    e.result = filled;
    e.valueBound = true;
    e.status = RobEntry::Status::Done;
    rob_.mark(Rob::Mask::Bound, e);
    boundLoadFilter_ |= blockFilterBit(e.inst.addr);
    if (isLoadLike(e.inst.type))
        impl_->onLoadExecuted(e);
}

void
Core::dispatchStage()
{
    if (halted_)
        return;
    std::uint32_t dispatched = 0;
    while (dispatched < params_.width && !rob_.full()) {
        const Instruction inst = program_.fetchNext();
        if (inst.type == OpType::Halt) {
            halted_ = true;
            noteWork();
            return;
        }
        noteWork();
        // CAM insert before push: a rebuild inside the insert sweeps
        // the window and must not see the half-constructed entry.
        InstSeq prev_same_word = 0;
        if (isStoreLike(inst.type))
            prev_same_word = wordMapInsert(wordAlign(inst.addr), nextSeq_);
        RobEntry& e = rob_.push();
        e = RobEntry{};
        e.inst = inst;
        e.seq = nextSeq_++;
        e.prevSameWord = prev_same_word;
        program_.snapshotTo(rob_.lastSnap());

        switch (inst.type) {
          case OpType::Alu:
            e.status = RobEntry::Status::Issued;
            e.valueBound = true;
            e.readyAt = now_ + inst.latency;
            rob_.mark(Rob::Mask::Pending, e);
            break;
          case OpType::Nop:
          case OpType::Fence:
            e.status = RobEntry::Status::Done;
            break;
          case OpType::Store:
            e.status = RobEntry::Status::Done;
            if (params_.storePrefetch && !agent_.l1Writable(inst.addr)) {
                e.prefetched = true;
                agent_.request(inst.addr, true);
            }
            break;
          case OpType::Load:
          case OpType::Cas:
          case OpType::FetchAdd:
            e.status = RobEntry::Status::Dispatched;
            rob_.mark(Rob::Mask::Pending, e);
            break;
          case OpType::Halt:
            break;
        }
        ++dispatched;
    }
}

void
Core::rollbackTo(const ProgSnapshot& snap, InstSeq last_valid_seq)
{
    program_.restoreFrom(snap);
    retiredSnap_ = snap;
    rob_.clear();
    recountRobStates();
    halted_ = false;
    ++flushEpoch_;
    noteWork();
    lastRetiredSeq_ = last_valid_seq;
    if (journalEnabled_) {
        while (!journal_.empty() && journal_.back().seq > last_valid_seq)
            journal_.pop_back();
    }
}

void
Core::notifyInvalidated(Addr block)
{
    // No value-bound load in the window whose block can hash to this
    // one (the filter is 0 when the Bound mask is empty and never
    // misses a bound load): nothing to snoop.
    if ((boundLoadFilter_ & blockFilterBit(block)) == 0)
        return;
    const Addr blk = blockAlign(block);
    std::size_t victim = rob_.size();
    rob_.forEachMarked(Rob::Mask::Bound, [&](std::size_t i) {
        const RobEntry& e = rob_.at(i);
        if (e.specMarked || blockAlign(e.inst.addr) != blk)
            return true;
        victim = i;   // the oldest unprotected bound load of the block
        return false;
    });
    if (victim == rob_.size())
        return;
    // Replay this load and squash everything younger.
    RobEntry& e = rob_.at(victim);
    program_.restoreFrom(rob_.snapAt(victim));
    halted_ = false;
    rob_.squashAfter(victim);
    e.status = RobEntry::Status::Dispatched;
    e.valueBound = false;
    e.readyAt = 0;
    recountRobStates();
    ++statLqSquashes;
    ++flushEpoch_;
    noteWork();
}

Cycle
Core::nextWorkAt() const
{
    // ROB part: the earliest completion of a value-bound in-flight entry
    // (ALU latency, L1 hit latency) — the Issued members of the Pending
    // mask. Memoized on the work version — any ROB mutation bumps it,
    // and in a quiescent state no entry has readyAt <= now (the tick
    // would have completed it).
    if (robReadyVersion_ != workVersion_) {
        Cycle ready = kNeverCycle;
        rob_.forEachMarked(Rob::Mask::Pending, [&](std::size_t i) {
            const RobEntry& e = rob_.at(i);
            if (e.status == RobEntry::Status::Issued && e.readyAt < ready)
                ready = e.readyAt;
            return true;
        });
        robReadyVersion_ = workVersion_;
        robReadyMemo_ = ready;
    }
    const Cycle impl_at = impl_->nextWorkAt();
    const Cycle rob_at =
        robReadyMemo_ <= now_ ? now_ + 1 : robReadyMemo_;
    return impl_at < rob_at ? impl_at : rob_at;
}

void
Core::accrueStallCycles(std::uint64_t n)
{
    statCycles += n;
    if (!impl_->routeCycles(lastStallKind_, n))
        breakdown_.add(lastStallKind_, n);
    impl_->accrueQuiescentCycles(n);
}

void
Core::registerStats(StatRegistry& reg, const std::string& prefix) const
{
    reg.registerStat(prefix + ".retired", &statRetired);
    reg.registerStat(prefix + ".loads", &statLoads);
    reg.registerStat(prefix + ".stores", &statStores);
    reg.registerStat(prefix + ".atomics", &statAtomics);
    reg.registerStat(prefix + ".fences", &statFences);
    reg.registerStat(prefix + ".mispredicts", &statMispredicts);
    reg.registerStat(prefix + ".lq_squashes", &statLqSquashes);
    reg.registerStat(prefix + ".cycles", &statCycles);
    reg.registerStat(prefix + ".cycles.busy", &breakdown_.busy);
    reg.registerStat(prefix + ".cycles.other", &breakdown_.other);
    reg.registerStat(prefix + ".cycles.sb_full", &breakdown_.sbFull);
    reg.registerStat(prefix + ".cycles.sb_drain", &breakdown_.sbDrain);
    reg.registerStat(prefix + ".cycles.violation", &breakdown_.violation);
}

} // namespace invisifence
