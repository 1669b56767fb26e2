#include "cpu/consistency.hh"

#include "sim/annotations.hh"
#include <memory>

#include "cpu/core.hh"
#include "sim/log.hh"

namespace invisifence {

ConsistencyImpl::ConsistencyImpl(std::string name, Core& core,
                                 CacheAgent& agent)
    : name_(std::move(name)), core_(core), agent_(agent)
{
}

ConsistencyImpl::ExtAction
ConsistencyImpl::onSpecConflict(Addr block, bool wants_write)
{
    (void)block;
    (void)wants_write;
    IF_PANIC("speculative conflict reported to a non-speculative "
             "consistency implementation (%s)", name_.c_str());
}

bool
ConsistencyImpl::resolveSpecEviction(Addr block)
{
    (void)block;
    IF_PANIC("speculative eviction reported to a non-speculative "
             "consistency implementation (%s)", name_.c_str());
}

void
ConsistencyImpl::resolveSpecEvictionHard(Addr block)
{
    (void)block;
    IF_PANIC("speculative eviction reported to a non-speculative "
             "consistency implementation (%s)", name_.c_str());
}

void
ConsistencyImpl::onInvalidateApplied(Addr block)
{
    core_.notifyInvalidated(block);
}

RetireCheck
ConsistencyImpl::retireWhenWritable(Addr addr)
{
    if (agent_.l1Writable(addr))
        return {true, StallKind::None};
    if (!agent_.fetchOutstanding(addr))
        agent_.request(addr, true);
    return {false, StallKind::SbDrain};
}

void
ConsistencyImpl::dumpLiveness(std::FILE* out) const
{
    std::fprintf(out, "    impl %s quiesced=%d\n", name_.c_str(),
                 quiesced() ? 1 : 0);
}

// ---------------------------------------------------------------------
// Conventional SC and TSO (word-granularity FIFO store buffer)
// ---------------------------------------------------------------------

ConventionalFifoImpl::ConventionalFifoImpl(Model model, Core& core,
                                           CacheAgent& agent,
                                           std::uint32_t sb_entries)
    : ConsistencyImpl(modelName(model), core, agent), model_(model),
      sb_(sb_entries)
{
    IF_DBG_ASSERT(model == Model::SC || model == Model::TSO);
}

RetireCheck
ConventionalFifoImpl::canRetire(RobEntry& entry)
{
    switch (entry.inst.type) {
      case OpType::Alu:
      case OpType::Nop:
        return {true, StallKind::None};
      case OpType::Load:
        // SC: a load may not retire past an incomplete store.
        if (model_ == Model::SC && !sb_.empty())
            return {false, StallKind::SbDrain};
        return {true, StallKind::None};
      case OpType::Store:
        if (!sb_.hasSpace())
            return {false, StallKind::SbFull};
        return {true, StallKind::None};
      case OpType::Cas:
      case OpType::FetchAdd: {
        // Atomics drain the store buffer and hold the block writable
        // (Figure 2: "Drain SB" under both SC and TSO).
        if (!sb_.empty())
            return {false, StallKind::SbDrain};
        return retireWhenWritable(entry.inst.addr);
      }
      case OpType::Fence:
        // SC already orders everything. TSO provides acquire/release
        // ordering for free; only full (StoreLoad) fences drain.
        if (model_ == Model::TSO && entry.inst.fullFence && !sb_.empty())
            return {false, StallKind::SbDrain};
        return {true, StallKind::None};
      case OpType::Halt:
        return {true, StallKind::None};
    }
    return {true, StallKind::None};
}

void
ConventionalFifoImpl::onRetire(RobEntry& entry)
{
    switch (entry.inst.type) {
      case OpType::Store:
        sb_.push(wordAlign(entry.inst.addr), entry.inst.value, entry.seq);
        break;
      case OpType::Cas:
        if (entry.result == entry.inst.expect) {
            agent_.writeWordL1(entry.inst.addr, entry.inst.value, false,
                               0);
        }
        break;
      case OpType::FetchAdd:
        agent_.writeWordL1(entry.inst.addr,
                           entry.result + entry.inst.value, false, 0);
        break;
      default:
        break;
    }
}

std::optional<std::uint64_t>
ConventionalFifoImpl::forwardStore(Addr addr) const
{
    return sb_.forward(addr);
}

void
ConventionalFifoImpl::tick()
{
    IF_HOT;
    // In-order drain of the FIFO head, up to two stores per cycle.
    for (int k = 0; k < 2 && !sb_.empty(); ++k) {
        FifoStoreBuffer::Entry& head = sb_.front();
        if (agent_.l1Writable(head.addr)) {
            agent_.writeWordL1(head.addr, head.data, false, 0);
            sb_.popFront();
            core_.noteWork();
            continue;
        }
        // Issue (or re-issue, if another core stole the permission
        // before the entry drained) the write fetch for the head.
        if (!agent_.fetchOutstanding(head.addr) &&
            agent_.request(head.addr, true)) {
            head.issued = true;
            core_.noteWork();
        }
        break;
    }
    // Store prefetching: acquire write permission for younger entries
    // while the head waits (Flexus models this too, Section 6.1).
    if (core_.params().storePrefetch) {
        int prefetches = 0;
        for (auto& e : sb_.entries()) {
            if (prefetches >= 2)
                break;
            if (e.issued || agent_.l1Writable(e.addr))
                continue;
            if (agent_.request(e.addr, true)) {
                e.issued = true;
                ++prefetches;
                core_.noteWork();
            } else {
                break;   // MSHRs exhausted
            }
        }
    }
}

void
ConventionalFifoImpl::dumpLiveness(std::FILE* out) const
{
    std::fprintf(out, "    impl %s sb=%zu/%u\n", name_.c_str(), sb_.size(),
                 sb_.capacity());
    const RingDeque<FifoStoreBuffer::Entry>& entries = sb_.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const FifoStoreBuffer::Entry& e = entries[i];
        std::fprintf(out, "      sb[%zu] addr=%llx seq=%llu issued=%d\n",
                     i, static_cast<unsigned long long>(e.addr),
                     static_cast<unsigned long long>(e.seq),
                     e.issued ? 1 : 0);
    }
}

// ---------------------------------------------------------------------
// Conventional RMO (block-granularity coalescing store buffer)
// ---------------------------------------------------------------------

ConventionalRmoImpl::ConventionalRmoImpl(Core& core, CacheAgent& agent,
                                         std::uint32_t sb_entries)
    : ConsistencyImpl("rmo", core, agent), sb_(sb_entries)
{
}

RetireCheck
ConventionalRmoImpl::canRetire(RobEntry& entry)
{
    switch (entry.inst.type) {
      case OpType::Alu:
      case OpType::Nop:
      case OpType::Load:
      case OpType::Halt:
        return {true, StallKind::None};
      case OpType::Store: {
        const Addr addr = entry.inst.addr;
        // Order within a block: merge into an existing entry if any.
        if (sb_.containsBlock(addr))
            return {true, StallKind::None};
        if (agent_.l1Writable(addr))
            return {true, StallKind::None};   // direct hit into the L1
        if (!sb_.full())
            return {true, StallKind::None};
        return {false, StallKind::SbFull};
      }
      case OpType::Cas:
      case OpType::FetchAdd: {
        // RMO atomics retire once the block is writable (Figure 2:
        // "Complete store") and program order within the block holds.
        if (sb_.containsBlock(entry.inst.addr))
            return {false, StallKind::SbDrain};
        return retireWhenWritable(entry.inst.addr);
      }
      case OpType::Fence:
        if (!sb_.empty())
            return {false, StallKind::SbDrain};
        return {true, StallKind::None};
    }
    return {true, StallKind::None};
}

void
ConventionalRmoImpl::onRetire(RobEntry& entry)
{
    const Addr addr = entry.inst.addr;
    switch (entry.inst.type) {
      case OpType::Store: {
        if (!sb_.containsBlock(addr) && agent_.l1Writable(addr)) {
            agent_.writeWordL1(addr, entry.inst.value, false, 0);
            return;
        }
        const auto res = sb_.store(addr, kWordBytes, entry.inst.value,
                                   false, kNonSpecCtx);
        IF_DBG_ASSERT(res != CoalescingStoreBuffer::StoreResult::Full);
        (void)res;
        break;
      }
      case OpType::Cas:
        if (entry.result == entry.inst.expect) {
            agent_.writeWordL1(addr, entry.inst.value, false, 0);
        }
        break;
      case OpType::FetchAdd:
        agent_.writeWordL1(addr, entry.result + entry.inst.value, false,
                           0);
        break;
      default:
        break;
    }
}

std::optional<std::uint64_t>
ConventionalRmoImpl::forwardStore(Addr addr) const
{
    return sb_.forward(addr);
}

void
ConventionalRmoImpl::tick()
{
    IF_HOT;
    // Unordered drain: any entry whose block is writable retires into
    // the L1; others acquire permission in the background.
    int drained = 0;
    auto& entries = sb_.entries();
    for (std::size_t i = 0; i < entries.size();) {
        auto& e = entries[i];
        if (agent_.l1Writable(e.blockAddr)) {
            if (drained < 2) {
                agent_.writeMaskedL1(e.blockAddr, e.data, false, 0);
                ++drained;
                core_.noteWork();
                entries.erase(entries.begin() +
                              static_cast<std::ptrdiff_t>(i));
                continue;
            }
        } else if (!e.fillRequested ||
                   !agent_.fetchOutstanding(e.blockAddr)) {
            if (agent_.request(e.blockAddr, true)) {
                e.fillRequested = true;
                e.fullStallNoted = false;
                core_.noteWork();
            } else {
                agent_.mshrs().noteFullStall(e.fullStallNoted);
            }
        }
        ++i;
    }
}

void
ConventionalRmoImpl::dumpLiveness(std::FILE* out) const
{
    std::fprintf(out, "    impl %s sb=%zu/%u\n", name_.c_str(), sb_.size(),
                 sb_.capacity());
    for (std::size_t i = 0; i < sb_.entries().size(); ++i) {
        const CoalescingStoreBuffer::Entry& e = sb_.entries()[i];
        std::fprintf(out,
                     "      sb[%zu] blk=%llx spec=%d ctx=%u "
                     "fillRequested=%d held=%d\n",
                     i, static_cast<unsigned long long>(e.blockAddr),
                     e.speculative ? 1 : 0, e.ctx, e.fillRequested ? 1 : 0,
                     e.held ? 1 : 0);
    }
}

std::unique_ptr<ConsistencyImpl>
makeConventional(Model model, Core& core, CacheAgent& agent)
{
    switch (model) {
      case Model::SC:
        return std::make_unique<ConventionalFifoImpl>(Model::SC, core,
                                                      agent, 64);
      case Model::TSO:
        return std::make_unique<ConventionalFifoImpl>(Model::TSO, core,
                                                      agent, 64);
      case Model::RMO:
        return std::make_unique<ConventionalRmoImpl>(core, agent, 8);
    }
    return nullptr;
}

} // namespace invisifence
