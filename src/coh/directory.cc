#include "coh/directory.hh"

#include "sim/annotations.hh"
#include "sim/log.hh"

namespace invisifence {

DirectorySlice::DirectorySlice(NodeId node, const HomeMap& home_map,
                               Network& net, EventQueue& eq,
                               FunctionalMemory& mem,
                               const DirectoryParams& params)
    : node_(node), homeMap_(home_map), net_(net), eq_(eq), mem_(mem),
      params_(params)
{
    net_.attachDirectory(node_, this);
    if (params_.faultTolerant) {
        if (params_.dedupCapacity == 0)
            IF_FATAL("fault-tolerant directory needs dedupCapacity > 0");
        // Ring of completed-transaction keys; 0 marks an empty slot
        // (txnId 0 is the untagged sentinel, so no real key is 0).
        dedupRing_.assign(params_.dedupCapacity, 0);
    }
}

bool
DirectorySlice::wasCompleted(NodeId src, std::uint32_t txn_id) const
{
    return dedup_.find(dedupKey(src, txn_id)) != nullptr;
}

void
DirectorySlice::recordCompleted(NodeId src, std::uint32_t txn_id)
{
    if (!params_.faultTolerant || txn_id == 0)
        return;
    const Addr key = dedupKey(src, txn_id);
    bool created = false;
    dedup_.getOrCreate(key, &created) = 1;
    if (!created)
        return;
    Addr& slot = dedupRing_[dedupHead_];
    if (slot != 0)
        dedup_.recycle(slot);   // FIFO eviction of the oldest record
    slot = key;
    dedupHead_ = (dedupHead_ + 1) % dedupRing_.size();
}

DirectorySlice::DirEntry&
DirectorySlice::entry(Addr block)
{
    // Directory state is only inserted, never erased, and callers hold
    // the returned reference only within one protocol step without
    // interleaving entry() inserts — so a grow here cannot invalidate a
    // reference anyone still uses.
    return dir_.getOrCreate(blockAlign(block));
}

#ifndef NDEBUG
void
DirectorySlice::verifyQuiescence() const
{
    // The quiescence counters are maintained incrementally by every
    // protocol step; recount them from scratch over the transient
    // per-block state before quiescent() trusts them.
    std::uint64_t waiting = 0;
    std::uint64_t active = 0;
    std::uint64_t busy = 0;
    home_.forEach([&](Addr, const BlockHome& h) {
        waiting += h.waiting.size();
        active += h.txnActive ? 1 : 0;
        busy += h.busy ? 1 : 0;
    });
    IF_DBG_ASSERT(waiting == waitingTotal_ &&
           "waitingTotal_ diverged from the waiting queues");
    IF_DBG_ASSERT(active == activeTxns_ &&
           "activeTxns_ diverged from the live transactions");
    IF_DBG_ASSERT(busy == busyBlocks_ &&
           "busyBlocks_ diverged from the busy flags");
    static_cast<void>(waiting);
    static_cast<void>(active);
    static_cast<void>(busy);
}
#endif

DirectorySlice::BlockHome&
DirectorySlice::home(Addr block)
{
    bool created = false;
    BlockHome& h = home_.getOrCreate(blockAlign(block), &created);
    if (created) {
        // Recycled entries carry stale fields; the queue's clear() keeps
        // its ring storage.
        h.busy = false;
        h.txnActive = false;
        h.waiting.clear();
    }
    return h;
}

void
DirectorySlice::maybeRecycleHome(Addr block)
{
    const Addr blk = blockAlign(block);
    if (const BlockHome* h = home_.find(blk)) {
        if (!h->busy && !h->txnActive && h->waiting.empty())
            home_.recycle(blk);
    }
}

DirectorySlice::EntryView
DirectorySlice::inspect(Addr block) const
{
    const DirEntry* e = dir_.find(blockAlign(block));
    if (!e)
        return EntryView{};
    return EntryView{e->state, e->sharers, e->owner};
}

void
DirectorySlice::registerStats(StatRegistry& reg,
                              const std::string& prefix) const
{
    reg.registerStat(prefix + ".gets", &statGetS);
    reg.registerStat(prefix + ".getm", &statGetM);
    reg.registerStat(prefix + ".writebacks", &statWritebacks);
    reg.registerStat(prefix + ".invalidations_sent",
                     &statInvalidationsSent);
    reg.registerStat(prefix + ".mem_reads", &statMemReads);
    reg.registerStat(prefix + ".stale_writebacks", &statStaleWritebacks);
    reg.registerStat(prefix + ".queued_requests", &statQueuedRequests);
    reg.registerStat(prefix + ".dups_squashed", &statDupsSquashed);
}

void
DirectorySlice::dumpTransients(std::FILE* out) const
{
    home_.forEach([&](Addr block, const BlockHome& h) {
        if (!h.busy && !h.txnActive && h.waiting.empty())
            return;
        std::fprintf(out,
                     "  dir%u blk=%llx busy=%d active=%d waiting=%zu",
                     node_, static_cast<unsigned long long>(block),
                     h.busy ? 1 : 0, h.txnActive ? 1 : 0,
                     h.waiting.size());
        if (h.txnActive) {
            const Txn& t = h.txn;
            std::fprintf(out,
                         " txn{%s src=%u txn_id=%u acks=%u needMem=%d "
                         "memDone=%d needOwner=%d ownerDone=%d}",
                         msgTypeName(t.req.type).data(), t.req.src,
                         t.req.txnId, t.pendingAcks, t.needMem ? 1 : 0,
                         t.memDone ? 1 : 0, t.needOwnerData ? 1 : 0,
                         t.ownerDataDone ? 1 : 0);
        }
        std::fprintf(out, "\n");
    });
}

void
DirectorySlice::primeOwned(Addr block, NodeId owner)
{
    IF_DBG_ASSERT(homeMap_.homeOf(block) == node_);
    DirEntry& e = entry(block);
    e.state = DirState::Owned;
    e.owner = owner;
    e.sharers.reset();
}

void
DirectorySlice::primeShared(Addr block, const SharerSet& sharers)
{
    IF_DBG_ASSERT(homeMap_.homeOf(block) == node_);
    IF_DBG_ASSERT(sharers.any());
    DirEntry& e = entry(block);
    e.state = DirState::Shared;
    e.sharers = sharers;
    e.owner = 0;
}

void
DirectorySlice::deliver(const Msg& msg)
{
    IF_HOT;
    IF_DBG_ASSERT(homeMap_.homeOf(msg.blockAddr) == node_);
    if (!isRequest(msg.type)) {
        handleResponse(msg);
        return;
    }
    BlockHome& h = home(msg.blockAddr);
    if (h.busy) {
        h.waiting.push_back(msg);
        ++waitingTotal_;
        ++statQueuedRequests;
        return;
    }
    h.busy = true;
    ++busyBlocks_;
    eq_.schedule(params_.procLatency, [this, msg]() { startTxn(msg); });
}

void
DirectorySlice::startNextIfQueued(Addr block)
{
    BlockHome* h = home_.find(blockAlign(block));
    IF_DBG_ASSERT(h && h->busy && "finishing a transaction with no home state");
    if (h->waiting.empty()) {
        h->busy = false;
        --busyBlocks_;
        maybeRecycleHome(block);
        return;
    }
    const Msg next = h->waiting.front();
    h->waiting.pop_front();
    --waitingTotal_;
    eq_.schedule(params_.procLatency, [this, next]() { startTxn(next); });
}

void
DirectorySlice::startTxn(const Msg& req)
{
    // A tagged request whose transaction already completed is a
    // duplicate (injected, or a retry racing its original): squash with
    // no response. The original's response (or this agent's retry) is
    // what the requester acts on; answering again would double-grant.
    // Checked here, after dequeue, so duplicates that queued behind
    // their original are caught once the original's record exists.
    if (req.txnId != 0 && wasCompleted(req.src, req.txnId)) {
        ++statDupsSquashed;
        startNextIfQueued(req.blockAddr);
        return;
    }
    DirEntry& e = entry(req.blockAddr);
    switch (req.type) {
      case MsgType::PutM:
      case MsgType::PutE:
      case MsgType::PutS:
        handlePut(req, e);
        startNextIfQueued(req.blockAddr);
        return;
      default:
        break;
    }

    BlockHome& h = home(req.blockAddr);
    IF_DBG_ASSERT(!h.txnActive && "transaction already active on block");
    h.txnActive = true;
    ++activeTxns_;
    h.txn = Txn{};
    Txn& txn = h.txn;
    txn.req = req;

    if (req.type == MsgType::GetS) {
        ++statGetS;
        handleGetS(txn, e);
    } else {
        IF_DBG_ASSERT(req.type == MsgType::GetM);
        ++statGetM;
        handleGetM(txn, e);
    }
    maybeFinish(req.blockAddr);
}

void
DirectorySlice::handleGetS(Txn& txn, DirEntry& e)
{
    const NodeId req = txn.req.src;
    switch (e.state) {
      case DirState::Idle:
      case DirState::Shared:
        txn.needMem = true;
        beginMemRead(txn.req.blockAddr);
        break;
      case DirState::Owned:
        if (e.owner == req && !params_.faultTolerant) {
            IF_PANIC("GetS from current owner %u blk=%llx", req,
                     static_cast<unsigned long long>(txn.req.blockAddr));
        }
        // owner == req can be legitimate under faults: the owner's Put
        // was dropped, so it no longer holds the block but we still
        // record its ownership. Forward to the owner as usual — the
        // agent serves the forward from its retained writeback data,
        // and the transaction completes normally.
        txn.needOwnerData = true;
        sendToAgent(e.owner, MsgType::FwdGetS, txn.req.blockAddr, nullptr,
                    false, req);
        break;
    }
}

void
DirectorySlice::handleGetM(Txn& txn, DirEntry& e)
{
    const NodeId req = txn.req.src;
    switch (e.state) {
      case DirState::Idle:
        txn.needMem = true;
        beginMemRead(txn.req.blockAddr);
        break;
      case DirState::Shared: {
        txn.needMem = true;
        beginMemRead(txn.req.blockAddr);
        e.sharers.forEach([&](NodeId n) {
            if (n == req)
                return;
            sendToAgent(n, MsgType::Inv, txn.req.blockAddr, nullptr,
                        false, req);
            ++txn.pendingAcks;
            ++statInvalidationsSent;
        });
        break;
      }
      case DirState::Owned:
        if (e.owner == req && !params_.faultTolerant) {
            IF_PANIC("GetM from current owner %u blk=%llx", req,
                     static_cast<unsigned long long>(txn.req.blockAddr));
        }
        // owner == req: dropped-Put recovery; see the GetS twin above.
        txn.needOwnerData = true;
        sendToAgent(e.owner, MsgType::FwdGetM, txn.req.blockAddr, nullptr,
                    false, req);
        break;
    }
}

void
DirectorySlice::handlePut(const Msg& req, DirEntry& e)
{
    const NodeId src = req.src;
    ++statWritebacks;
    bool stale = false;
    switch (req.type) {
      case MsgType::PutM:
      case MsgType::PutE:
        if (e.state == DirState::Owned && e.owner == src &&
            !(req.txnId != 0 && e.grantTxn != 0 &&
              req.txnId <= e.grantTxn)) {
            // The tag comparison guards a fault-mode hazard owner==src
            // alone cannot catch: a retried Put (original dropped, so
            // no dedup record) arriving after this agent re-acquired
            // ownership with a NEWER Get. Its stale data must not reach
            // memory. Valid Puts always carry a tag issued after the
            // grant; ids are per-agent monotonic, so tag <= grantTxn
            // means "predates the current ownership".
            if (req.type == MsgType::PutM) {
                IF_DBG_ASSERT(req.hasData);
                mem_.writeBlock(req.blockAddr, req.data);
            }
            e.state = DirState::Idle;
            e.sharers.reset();
        } else {
            stale = true;
        }
        break;
      case MsgType::PutS:
        if (e.state == DirState::Shared && e.sharers.test(src)) {
            e.sharers.clear(src);
            if (e.sharers.none())
                e.state = DirState::Idle;
        } else {
            stale = true;
        }
        break;
      default:
        IF_PANIC("handlePut on %s", msgTypeName(req.type).data());
    }
    if (stale)
        ++statStaleWritebacks;
    // Stale Puts complete too (the ack IS the response): a duplicate of
    // either outcome must be squashed, not re-acked.
    recordCompleted(src, req.txnId);
    sendToAgent(src, stale ? MsgType::AckStale : MsgType::WbAck,
                req.blockAddr, nullptr, false, src);
}

void
DirectorySlice::beginMemRead(Addr block)
{
    ++statMemReads;
    eq_.schedule(params_.memLatency, [this, block]() {
        BlockHome* h = home_.find(blockAlign(block));
        if (!h || !h->txnActive)
            return;    // transaction satisfied by owner data instead
        Txn& txn = h->txn;
        txn.memDone = true;
        if (!txn.dataFromOwner) {
            txn.data = mem_.readBlock(block);
            txn.dataDirty = false;
        }
        maybeFinish(block);
    });
}

void
DirectorySlice::handleResponse(const Msg& msg)
{
    BlockHome* h = home_.find(blockAlign(msg.blockAddr));
    if (!h || !h->txnActive) {
        IF_PANIC("response %s with no active txn blk=%llx",
                 msgTypeName(msg.type).data(),
                 static_cast<unsigned long long>(msg.blockAddr));
    }
    Txn& txn = h->txn;
    switch (msg.type) {
      case MsgType::InvAck:
        IF_DBG_ASSERT(txn.pendingAcks > 0);
        --txn.pendingAcks;
        break;
      case MsgType::DataToHome:
        IF_DBG_ASSERT(txn.needOwnerData && msg.hasData);
        txn.ownerDataDone = true;
        txn.data = msg.data;
        txn.dataFromOwner = true;
        txn.dataDirty = msg.dirty;
        // Keep memory current: Shared implies the memory image is valid.
        mem_.writeBlock(msg.blockAddr, msg.data);
        break;
      default:
        IF_PANIC("unexpected response %s at directory",
                 msgTypeName(msg.type).data());
    }
    maybeFinish(msg.blockAddr);
}

void
DirectorySlice::maybeFinish(Addr block)
{
    BlockHome* h = home_.find(blockAlign(block));
    if (!h || !h->txnActive)
        return;
    Txn& txn = h->txn;
    if (txn.needMem && !txn.memDone && !txn.dataFromOwner)
        return;
    if (txn.pendingAcks > 0)
        return;
    if (txn.needOwnerData && !txn.ownerDataDone)
        return;

    DirEntry& e = entry(block);
    if (txn.req.type == MsgType::GetS)
        finishGetS(txn, e);
    else
        finishGetM(txn, e);
    h->txnActive = false;
    --activeTxns_;
    startNextIfQueued(block);
}

void
DirectorySlice::finishGetS(Txn& txn, DirEntry& e)
{
    const NodeId req = txn.req.src;
    recordCompleted(req, txn.req.txnId);
    if (e.state == DirState::Idle) {
        // Grant Exclusive when no one else holds the block.
        e.state = DirState::Owned;
        e.owner = req;
        e.sharers.reset();
        e.grantTxn = txn.req.txnId;
        sendToAgent(req, MsgType::DataE, txn.req.blockAddr, &txn.data,
                    false, req);
    } else if (e.state == DirState::Shared) {
        e.sharers.set(req);
        sendToAgent(req, MsgType::DataS, txn.req.blockAddr, &txn.data,
                    false, req);
    } else {
        // Owner provided the data and downgraded itself to Shared.
        IF_DBG_ASSERT(txn.dataFromOwner);
        e.state = DirState::Shared;
        e.sharers = SharerSet::single(e.owner);
        e.sharers.set(req);
        sendToAgent(req, MsgType::DataS, txn.req.blockAddr, &txn.data,
                    false, req);
    }
}

void
DirectorySlice::finishGetM(Txn& txn, DirEntry& e)
{
    const NodeId req = txn.req.src;
    recordCompleted(req, txn.req.txnId);
    e.state = DirState::Owned;
    e.owner = req;
    e.sharers.reset();
    e.grantTxn = txn.req.txnId;
    sendToAgent(req, MsgType::DataM, txn.req.blockAddr, &txn.data,
                txn.dataDirty, req);
}

void
DirectorySlice::sendToAgent(NodeId dst, MsgType type, Addr block,
                            const BlockData* data, bool dirty,
                            NodeId requester)
{
    Msg m;
    m.type = type;
    m.blockAddr = blockAlign(block);
    m.src = node_;
    m.dst = dst;
    m.dstUnit = Unit::Agent;
    m.requester = requester;
    if (data) {
        m.data = *data;
        m.hasData = true;
    }
    m.dirty = dirty;
    net_.send(m);
}

} // namespace invisifence
