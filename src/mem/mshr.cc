#include "mem/mshr.hh"

#include "sim/annotations.hh"
#include "sim/log.hh"

namespace invisifence {

MshrFile::MshrFile(std::uint32_t capacity)
    : capacity_(capacity), slots_(capacity), live_(capacity, 0),
      // 4x capacity keeps the index at <= 25% load, so probe chains are
      // one or two slots; it is sized once and never grows.
      index_(static_cast<std::size_t>(capacity) * 4)
{
    freeSlots_.reserve(capacity);
    for (std::uint32_t i = 0; i < capacity; ++i)
        freeSlots_.push_back(capacity - 1 - i);
    // Waiter nodes are bounded by the in-flight ops that can block on a
    // fill (roughly the window per MSHR), so claim the slab up front:
    // reaching the high-water mark mid-run must not allocate.
    const std::size_t waiters = static_cast<std::size_t>(capacity) * 8;
    waiterPool_.resize(waiters);
    for (std::size_t i = 0; i < waiters; ++i) {
        waiterPool_[i].next =
            i + 1 < waiters ? static_cast<std::uint32_t>(i + 1) : kNoWaiter;
    }
    waiterFree_ = 0;
}

Mshr*
MshrFile::lookup(Addr addr)
{
    IF_HOT;
    const Addr blk = blockAlign(addr);
    Mshr* m = lookup(blk, Mshr::Kind::Fetch);
    if (!m)
        m = lookup(blk, Mshr::Kind::Writeback);
    return m;
}

Mshr*
MshrFile::lookup(Addr addr, Mshr::Kind k)
{
    IF_HOT;
    const std::uint32_t* slot = index_.find(indexKey(blockAlign(addr), k));
    return slot ? &slots_[*slot] : nullptr;
}

Mshr*
MshrFile::allocate(Addr addr, Mshr::Kind k)
{
    IF_HOT;
    if (full()) {
        ++statFullStalls;
        return nullptr;
    }
    const std::uint32_t slot = freeSlots_.back();
    freeSlots_.pop_back();
    live_[slot] = 1;
    // Recycled slots carry stale fields; reset everything.
    Mshr& m = slots_[slot];
    m.blockAddr = blockAlign(addr);
    m.kind = k;
    m.wantWrite = false;
    m.issuedWrite = false;
    IF_DBG_ASSERT(m.readWaiters.empty() && m.writeWaiters.empty());
    m.readWaiters = WaiterChain{};
    m.writeWaiters = WaiterChain{};
    m.wbData = BlockData{};
    m.wbDirty = false;
    m.ownershipLost = false;
    m.wbType = MsgType::PutS;
    m.txnId = 0;
    m.retryAttempt = 0;
    bool created = false;
    index_.getOrCreate(indexKey(m.blockAddr, k), &created) = slot;
    IF_DBG_ASSERT(created && "duplicate MSHR for one (block, kind)");
    ++count_;
    ++statAllocations;
    return &m;
}

void
MshrFile::releaseChain(WaiterChain& chain)
{
    std::uint32_t idx = chain.head;
    while (idx != kNoWaiter) {
        const std::uint32_t next = waiterPool_[idx].next;
        waiterPool_[idx].next = waiterFree_;
        waiterFree_ = idx;
        idx = next;
    }
    chain = WaiterChain{};
}

void
MshrFile::free(Mshr* m)
{
    const std::ptrdiff_t off = m - slots_.data();
    IF_DBG_ASSERT(off >= 0 && off < static_cast<std::ptrdiff_t>(capacity_) &&
           "freeing MSHR not in file");
    const std::uint32_t slot = static_cast<std::uint32_t>(off);
    IF_DBG_ASSERT(live_[slot] && "double free of MSHR slot");
    // A populated chain here means fill callbacks are being dropped —
    // loads waiting on them would hang (or silently replay): a protocol
    // bug at the call site, not a cleanup detail. All current call
    // sites (finishFill, handleWbAck) detach the chains first or can
    // prove them empty; see the audit notes in cache_agent.cc.
    IF_DBG_ASSERT(m->readWaiters.empty() && m->writeWaiters.empty() &&
           "freeing MSHR with live waiters (lost fill callbacks)");
    if (!m->readWaiters.empty() || !m->writeWaiters.empty()) {
        if (!warnedLiveWaiters_) {
            warnedLiveWaiters_ = true;
            IF_LOG("MshrFile::free dropping live waiters blk=%llx "
                   "(protocol bug; further drops not logged)",
                   static_cast<unsigned long long>(m->blockAddr));
        }
        releaseChain(m->readWaiters);
        releaseChain(m->writeWaiters);
    }
    const bool erased = index_.erase(indexKey(m->blockAddr, m->kind));
    IF_DBG_ASSERT(erased && "freeing MSHR missing from the index");
    static_cast<void>(erased);
    live_[slot] = 0;
    hotPush(freeSlots_, slot);
    --count_;
}

void
MshrFile::pushWaiter(WaiterChain& chain, const FillWaiter& cb)
{
    // Merge-time dedup: a record equal to one already chained would
    // repeat the same wake action at the same fill; drop it. Chains are
    // short (typically one record per wake kind after dedup).
    for (std::uint32_t i = chain.head; i != kNoWaiter;
         i = waiterPool_[i].next) {
        if (waiterPool_[i].cb == cb) {
            ++statWaiterDedups;
            return;
        }
    }
    std::uint32_t idx;
    if (waiterFree_ != kNoWaiter) {
        idx = waiterFree_;
        waiterFree_ = waiterPool_[idx].next;
    } else {
        idx = growWaiterPool();
    }
    WaiterNode& node = waiterPool_[idx];
    node.cb = cb;
    node.next = kNoWaiter;
    if (chain.tail == kNoWaiter) {
        chain.head = idx;
    } else {
        waiterPool_[chain.tail].next = idx;
    }
    chain.tail = idx;
}

std::uint32_t
MshrFile::growWaiterPool()
{
    IF_COLD_ALLOC("waiter-node slab growth: nodes are free-listed and "
                  "recycled, so the slab stops growing at the in-flight "
                  "waiter high-water mark reached during warmup");
    waiterPool_.emplace_back();
    return static_cast<std::uint32_t>(waiterPool_.size() - 1);
}

std::uint32_t
MshrFile::takeWaiters(WaiterChain& chain)
{
    const std::uint32_t head = chain.head;
    chain = WaiterChain{};
    return head;
}

FillWaiter
MshrFile::takeWaiterAndAdvance(std::uint32_t& idx)
{
    IF_DBG_ASSERT(idx != kNoWaiter);
    WaiterNode& node = waiterPool_[idx];
    const FillWaiter cb = node.cb;
    const std::uint32_t next = node.next;
    node.next = waiterFree_;
    waiterFree_ = idx;
    idx = next;
    return cb;
}

} // namespace invisifence
