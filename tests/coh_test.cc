/** @file Coherence substrate tests: torus network, directory protocol
 *  flows, and the cache agent, driven without cores. */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "coh/cache_agent.hh"
#include "coh/directory.hh"
#include "coh/network.hh"
#include "mem/functional_mem.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace invisifence;

namespace {

/** FillWaiter record that sets *@p flag when the fill completes. */
FillWaiter
flagWaiter(bool* flag)
{
    return {[](void* owner, std::uint64_t) {
                *static_cast<bool*>(owner) = true;
            },
            flag, 0};
}

/** FillWaiter record that bumps *@p count. @p tag keeps otherwise
 *  identical records distinct where the MSHR merge dedup would
 *  deliberately collapse them. */
FillWaiter
countWaiter(int* count, std::uint64_t tag = 0)
{
    return {[](void* owner, std::uint64_t) {
                ++*static_cast<int*>(owner);
            },
            count, tag};
}

/** A bare multiprocessor memory system: agents + directories, no cores. */
struct Rig
{
    explicit Rig(std::uint32_t nodes, AgentParams ap = AgentParams{},
                 DirectoryParams dp = DirectoryParams{40, 5})
        : numNodes(nodes),
          net(eq, NetworkParams{nodes, 1, 20, 1}, nodes)
    {
        ap.l2Size = 64 * 1024;
        ap.l1Size = 4 * 1024;
        for (NodeId n = 0; n < nodes; ++n) {
            dirs.push_back(std::make_unique<DirectorySlice>(
                n, nodes, net, eq, mem, dp));
            agents.push_back(
                std::make_unique<CacheAgent>(n, nodes, net, eq, ap));
        }
    }

    /** Run the event queue far enough for everything to settle. */
    void
    settle(Cycle horizon = 100000)
    {
        eq.advanceTo(eq.now() + horizon);
    }

    /** Blocking request helper: returns once the block is usable. */
    void
    fetch(NodeId n, Addr addr, bool write)
    {
        bool done = false;
        ASSERT_TRUE(agents[n]->request(addr, write, flagWaiter(&done)));
        settle();
        ASSERT_TRUE(done);
    }

    std::uint32_t numNodes;
    EventQueue eq;
    FunctionalMemory mem;
    Network net;
    std::vector<std::unique_ptr<DirectorySlice>> dirs;
    std::vector<std::unique_ptr<CacheAgent>> agents;
};

} // namespace

// ---------------------------------------------------------------- network

TEST(Network, TorusHopsWrapAround)
{
    EventQueue eq;
    Network net(eq, NetworkParams{4, 4, 25, 1}, 16);
    EXPECT_EQ(net.hops(0, 0), 0u);
    EXPECT_EQ(net.hops(0, 1), 1u);
    EXPECT_EQ(net.hops(0, 3), 1u);    // wrap in x
    EXPECT_EQ(net.hops(0, 12), 1u);   // wrap in y
    EXPECT_EQ(net.hops(0, 5), 2u);
    EXPECT_EQ(net.hops(0, 10), 4u);   // opposite corner-ish
}

TEST(Network, DelayScalesWithHops)
{
    EventQueue eq;
    Network net(eq, NetworkParams{4, 4, 25, 1}, 16);
    EXPECT_EQ(net.delay(0, 0), 1u);      // local floor
    EXPECT_EQ(net.delay(0, 1), 25u);
    EXPECT_EQ(net.delay(0, 5), 50u);
}

TEST(Network, DeliversToAttachedSink)
{
    EventQueue eq;
    Network net(eq, NetworkParams{2, 1, 10, 1}, 2);
    int got = 0;
    net.attach(1, Unit::Agent, [&](const Msg& m) {
        EXPECT_EQ(m.type, MsgType::GetS);
        ++got;
    });
    Msg m;
    m.type = MsgType::GetS;
    m.src = 0;
    m.dst = 1;
    m.dstUnit = Unit::Agent;
    net.send(m);
    eq.advanceTo(9);
    EXPECT_EQ(got, 0);
    eq.advanceTo(10);
    EXPECT_EQ(got, 1);
}

TEST(Network, PerPairFifoOrder)
{
    EventQueue eq;
    Network net(eq, NetworkParams{2, 1, 10, 1}, 2);
    std::vector<int> order;
    net.attach(1, Unit::Agent, [&](const Msg& m) {
        order.push_back(static_cast<int>(m.blockAddr));
    });
    for (int i = 0; i < 4; ++i) {
        Msg m;
        m.blockAddr = static_cast<Addr>(i);
        m.src = 0;
        m.dst = 1;
        m.dstUnit = Unit::Agent;
        net.send(m);
    }
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --------------------------------------------------------- protocol flows

TEST(Protocol, ColdGetSGrantsExclusive)
{
    Rig rig(2);
    rig.mem.writeWord(0x1000, 99);
    rig.fetch(0, 0x1000, false);
    EXPECT_TRUE(rig.agents[0]->l1Readable(0x1000));
    EXPECT_TRUE(rig.agents[0]->l1Writable(0x1000));   // E grant when idle
    EXPECT_EQ(rig.agents[0]->readWordL1(0x1000), 99u);
    const NodeId home = homeOf(0x1000, 2);
    EXPECT_EQ(rig.dirs[home]->inspect(0x1000).state,
              DirectorySlice::DirState::Owned);
}

TEST(Protocol, SecondReaderSharesAndDowngradesOwner)
{
    Rig rig(2);
    rig.fetch(0, 0x1000, true);
    rig.agents[0]->writeWordL1(0x1000, 7, false, 0);
    rig.fetch(1, 0x1000, false);
    EXPECT_EQ(rig.agents[1]->readWordL1(0x1000), 7u);
    EXPECT_TRUE(rig.agents[0]->l1Readable(0x1000));
    EXPECT_FALSE(rig.agents[0]->l1Writable(0x1000));   // downgraded to S
    const NodeId home = homeOf(0x1000, 2);
    EXPECT_EQ(rig.dirs[home]->inspect(0x1000).state,
              DirectorySlice::DirState::Shared);
    // The FwdGetS writeback also made memory current.
    EXPECT_EQ(rig.mem.readWord(0x1000), 7u);
}

TEST(Protocol, WriterInvalidatesSharers)
{
    Rig rig(3);
    rig.fetch(0, 0x2000, false);
    rig.fetch(1, 0x2000, false);
    rig.fetch(2, 0x2000, true);
    EXPECT_TRUE(rig.agents[2]->l1Writable(0x2000));
    EXPECT_FALSE(rig.agents[0]->l1Readable(0x2000));
    EXPECT_FALSE(rig.agents[1]->l1Readable(0x2000));
    const NodeId home = homeOf(0x2000, 3);
    const auto view = rig.dirs[home]->inspect(0x2000);
    EXPECT_EQ(view.state, DirectorySlice::DirState::Owned);
    EXPECT_EQ(view.owner, 2u);
}

TEST(Protocol, DirtyDataMigratesWriterToWriter)
{
    Rig rig(2);
    rig.fetch(0, 0x3000, true);
    rig.agents[0]->writeWordL1(0x3000, 123, false, 0);
    rig.fetch(1, 0x3000, true);
    EXPECT_EQ(rig.agents[1]->readWordL1(0x3000), 123u);
    EXPECT_FALSE(rig.agents[0]->l1Readable(0x3000));
}

TEST(Protocol, UpgradeFromSharedKeepsData)
{
    Rig rig(2);
    rig.fetch(0, 0x4000, false);
    rig.fetch(1, 0x4000, false);
    rig.fetch(0, 0x4000, true);    // S -> M upgrade
    EXPECT_TRUE(rig.agents[0]->l1Writable(0x4000));
    EXPECT_FALSE(rig.agents[1]->l1Readable(0x4000));
}

TEST(Protocol, SilentEToMUpgradeThenServe)
{
    Rig rig(2);
    rig.fetch(0, 0x5000, false);              // E grant
    ASSERT_TRUE(rig.agents[0]->l1Writable(0x5000));
    rig.agents[0]->writeWordL1(0x5000, 42, false, 0);   // silent E->M
    rig.fetch(1, 0x5000, false);
    EXPECT_EQ(rig.agents[1]->readWordL1(0x5000), 42u);
}

TEST(Protocol, RequestsMergeIntoOneFetch)
{
    Rig rig(2);
    int done = 0;
    ASSERT_TRUE(rig.agents[0]->request(0x6000, false,
                                       countWaiter(&done, 0)));
    ASSERT_TRUE(rig.agents[0]->request(0x6000, false,
                                       countWaiter(&done, 1)));
    EXPECT_TRUE(rig.agents[0]->fetchOutstanding(0x6000));
    rig.settle();
    EXPECT_EQ(done, 2);
}

TEST(Protocol, ReadThenWriteWaiterUpgrades)
{
    Rig rig(2);
    rig.fetch(1, 0x7000, false);   // someone else shares first
    rig.fetch(0, 0x7000, false);
    int write_ok = 0;
    ASSERT_TRUE(rig.agents[0]->request(0x7000, true,
                                       countWaiter(&write_ok)));
    rig.settle();
    EXPECT_EQ(write_ok, 1);
    EXPECT_TRUE(rig.agents[0]->l1Writable(0x7000));
}

TEST(Protocol, DirectoryQueuesConcurrentWriters)
{
    Rig rig(4);
    int done = 0;
    for (NodeId n = 0; n < 4; ++n)
        ASSERT_TRUE(rig.agents[n]->request(0x8000, true,
                                           countWaiter(&done, n)));
    rig.settle();
    EXPECT_EQ(done, 4);
    // Exactly one writable copy at the end.
    int writable = 0;
    for (NodeId n = 0; n < 4; ++n)
        writable += rig.agents[n]->l1Writable(0x8000);
    EXPECT_EQ(writable, 1);
    const NodeId home = homeOf(0x8000, 4);
    EXPECT_TRUE(rig.dirs[home]->quiescent());
}

TEST(Protocol, VictimCacheCatchesL1Conflict)
{
    Rig rig(1);
    // 4KB 2-way L1 => 32 sets; three blocks mapping to the same set.
    const Addr a = 0x0, b = 32 * kBlockBytes, c = 64 * kBlockBytes;
    rig.fetch(0, a, false);
    rig.fetch(0, b, false);
    rig.fetch(0, c, false);   // evicts one of a/b into the VC
    EXPECT_EQ(rig.agents[0]->victimCache().size(), 1u);
    rig.fetch(0, a, false);   // back, possibly via the VC
    EXPECT_TRUE(rig.agents[0]->l1Readable(a));
}

TEST(Protocol, CleanWritebackPreservesValueInL2)
{
    Rig rig(1);
    rig.fetch(0, 0x9000, true);
    rig.agents[0]->writeWordL1(0x9000, 5, false, 0);
    ASSERT_TRUE(rig.agents[0]->l1Dirty(0x9000));
    bool cleaned = false;
    ASSERT_TRUE(rig.agents[0]->cleanWriteback(0x9000, flagWaiter(&cleaned)));
    rig.settle();
    EXPECT_TRUE(cleaned);
    EXPECT_FALSE(rig.agents[0]->l1Dirty(0x9000));
    EXPECT_EQ(rig.agents[0]->l2().lookup(0x9000).data().readWord(
                  blockOffset(0x9000)),
              5u);
}

TEST(Protocol, ExternalBlockingDefersAndReplays)
{
    Rig rig(2);
    rig.fetch(0, 0xa000, true);
    rig.agents[0]->writeWordL1(0xa000, 9, false, 0);
    rig.agents[0]->setExternalBlocked(true);
    bool done = false;
    ASSERT_TRUE(rig.agents[1]->request(0xa000, false,
                                       flagWaiter(&done)));
    rig.settle();
    EXPECT_FALSE(done);    // parked behind the blocked interface
    EXPECT_TRUE(rig.agents[0]->hasDeferred());
    rig.agents[0]->setExternalBlocked(false);
    rig.settle();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.agents[1]->readWordL1(0xa000), 9u);
}

// ------------------------------------------- clean-mode eviction race

namespace {

/**
 * Clean-mode (no fault tolerance) eviction race. Node 0 owns a dirty
 * block and evicts it from its L2, so its only copy sits in a writeback
 * MSHR while its PutM is in flight. Node 1 asks for the block in that
 * window. The block's home is node 1, so node 1's request reaches it in
 * one cycle while node 0's Put still needs a network hop: the home
 * forwards to node 0 before the Put arrives, and the Put queues behind
 * that transaction.
 */
class EvictionRace : public ::testing::TestWithParam<bool>
{
};

} // namespace

TEST_P(EvictionRace, ForwardServedFromWritebackMshrThenPutAckedStale)
{
    const bool fwd_getm = GetParam();   // false: FwdGetS, true: FwdGetM
    Rig rig(2);
    constexpr Addr kBlock = 0x1040;     // block 0x41: home is node 1
    ASSERT_EQ(homeOf(kBlock, 2), 1u);
    constexpr std::uint64_t kValue = 0xfeed;
    CacheAgent& owner = *rig.agents[0];
    CacheAgent& requester = *rig.agents[1];
    DirectorySlice& home = *rig.dirs[1];

    rig.fetch(0, kBlock, true);
    owner.writeWordL1(kBlock, kValue, false, 0);
    ASSERT_NE(rig.mem.readWord(kBlock), kValue);   // only node 0 has it

    // Fetch blocks of the same L2 set until the owner's L2 evicts
    // kBlock; stop the clock the cycle its writeback MSHR appears.
    const Addr stride = Addr{owner.l2().numSets()} * kBlockBytes;
    bool evicted = false;
    for (std::uint32_t k = 1; k <= 2 * owner.params().l2Ways && !evicted;
         ++k) {
        bool filled = false;
        ASSERT_TRUE(owner.request(kBlock + k * stride, false,
                                  flagWaiter(&filled)));
        for (Cycle t = 0; t < 10000 && !filled && !evicted; ++t) {
            rig.eq.advanceTo(rig.eq.now() + 1);
            evicted = owner.mshrs().lookup(kBlock, Mshr::Kind::Writeback);
        }
    }
    ASSERT_TRUE(evicted);
    ASSERT_FALSE(owner.l2().lookup(kBlock));
    ASSERT_FALSE(owner.l1Readable(kBlock));
    const std::uint64_t stale_before = home.statStaleWritebacks;
    const std::uint64_t served_before = owner.statExternalServed;

    bool done = false;
    ASSERT_TRUE(requester.request(kBlock, fwd_getm, flagWaiter(&done)));
    for (Cycle t = 0; t < 10000 && !done; ++t)
        rig.eq.advanceTo(rig.eq.now() + 1);
    ASSERT_TRUE(done);
    // The forward was served while the Put was still unanswered.
    EXPECT_EQ(owner.statExternalServed, served_before + 1);
    EXPECT_TRUE(owner.mshrs().lookup(kBlock, Mshr::Kind::Writeback));

    rig.settle();
    // The retained data reached the home (memory) and the requester.
    EXPECT_EQ(rig.mem.readWord(kBlock), kValue);
    EXPECT_EQ(requester.readWordL1(kBlock), kValue);
    EXPECT_EQ(requester.l1Writable(kBlock), fwd_getm);
    // The crossing Put was acked stale, which freed the writeback MSHR.
    EXPECT_EQ(home.statStaleWritebacks, stale_before + 1);
    EXPECT_FALSE(owner.mshrs().lookup(kBlock, Mshr::Kind::Writeback));
    const auto view = home.inspect(kBlock);
    if (fwd_getm) {
        EXPECT_EQ(view.state, DirectorySlice::DirState::Owned);
        EXPECT_EQ(view.owner, 1u);
    } else {
        EXPECT_EQ(view.state, DirectorySlice::DirState::Shared);
    }
    // No MSHR leaks anywhere, and both homes are idle.
    for (NodeId n = 0; n < 2; ++n) {
        EXPECT_EQ(rig.agents[n]->mshrs().inUse(), 0u) << "agent " << n;
        EXPECT_TRUE(rig.dirs[n]->quiescent()) << "home " << n;
    }
}

INSTANTIATE_TEST_SUITE_P(FwdKinds, EvictionRace, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                             return p.param ? "FwdGetM" : "FwdGetS";
                         });

// --------------------------------------------------- random property test

namespace {

struct RandomParam
{
    std::uint32_t nodes;
    std::uint64_t seed;
};

class ProtocolRandom : public ::testing::TestWithParam<RandomParam>
{
};

} // namespace

TEST_P(ProtocolRandom, SingleWriterInvariantUnderRandomTraffic)
{
    const auto [nodes, seed] = GetParam();
    Rig rig(nodes);
    Rng rng(seed);
    constexpr std::uint32_t kBlocks = 24;

    for (int round = 0; round < 60; ++round) {
        // Burst of random requests.
        for (int k = 0; k < 12; ++k) {
            const NodeId n =
                static_cast<NodeId>(rng.below(nodes));
            const Addr addr = static_cast<Addr>(rng.below(kBlocks)) *
                              kBlockBytes;
            const bool write = rng.below(2) == 0;
            rig.agents[n]->request(addr, write);
        }
        rig.settle(50000);

        // Invariants at quiescence: at most one writable copy per block,
        // and every directory slice idle.
        for (std::uint32_t b = 0; b < kBlocks; ++b) {
            const Addr addr = static_cast<Addr>(b) * kBlockBytes;
            int writable = 0;
            for (NodeId n = 0; n < nodes; ++n)
                writable += rig.agents[n]->l1Writable(addr) ||
                            (rig.agents[n]->l2().lookup(addr) &&
                             isWritable(
                                 rig.agents[n]->l2().lookup(addr).state()));
            ASSERT_LE(writable, 1) << "block " << b;
            if (writable == 1) {
                // No other valid copies coexist with a writer.
                int readable = 0;
                for (NodeId n = 0; n < nodes; ++n) {
                    const CacheArray::Line l2 =
                        rig.agents[n]->l2().lookup(addr);
                    readable += static_cast<int>(l2 && l2.valid());
                }
                ASSERT_EQ(readable, 1) << "block " << b;
            }
        }
        for (NodeId n = 0; n < nodes; ++n)
            ASSERT_TRUE(rig.dirs[n]->quiescent());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolRandom,
    ::testing::Values(RandomParam{2, 1}, RandomParam{2, 7},
                      RandomParam{3, 11}, RandomParam{4, 3},
                      RandomParam{4, 13}, RandomParam{8, 5},
                      RandomParam{8, 17}, RandomParam{16, 23}));

// ------------------------------------ flat directory growth under traffic

TEST(DirectoryFlat, GrowthFromDefaultMatchesReservedUpFront)
{
    // Two identical rigs driven by the same deterministic request/prime
    // stream: one slice set grows its flat per-block table from the
    // default capacity (doubling and rehashing under live traffic), the
    // other reserves room for every block up front and never grows.
    // Every directory slice must end with the same state and counters.
    constexpr std::uint32_t kNodes = 4;
    constexpr std::uint32_t kBlocks = 192;   // 56 per slice >> 64/2 slots
    const DirectoryParams dp{40, 5};
    Rig grow_rig(kNodes, AgentParams{}, dp);
    Rig ref_rig(kNodes, AgentParams{}, dp);
    for (NodeId n = 0; n < kNodes; ++n)
        ref_rig.dirs[n]->reserve(kBlocks + 32);

    // Prime a slab of blocks outside the traffic range identically.
    for (std::uint32_t b = 0; b < 32; ++b) {
        const Addr addr =
            static_cast<Addr>(kBlocks + b) * kBlockBytes;
        for (Rig* rig : {&grow_rig, &ref_rig}) {
            DirectorySlice& d = *rig->dirs[homeOf(addr, kNodes)];
            if (b % 2 == 0) {
                SharerSet sharers = SharerSet::single(b % kNodes);
                sharers.set(0);
                d.primeShared(addr, sharers);
            } else {
                d.primeOwned(addr, b % kNodes);
            }
        }
    }

    Rng rng(20090613);
    for (int round = 0; round < 60; ++round) {
        for (int burst = 0; burst < 8; ++burst) {
            const NodeId n = static_cast<NodeId>(rng.below(kNodes));
            const Addr addr =
                static_cast<Addr>(rng.below(kBlocks)) * kBlockBytes;
            const bool write = rng.below(2) == 0;
            // Identical accept/reject decisions are part of the
            // equivalence claim.
            ASSERT_EQ(grow_rig.agents[n]->request(addr, write),
                      ref_rig.agents[n]->request(addr, write));
        }
        grow_rig.settle(2000);
        ref_rig.settle(2000);
    }
    grow_rig.settle();
    ref_rig.settle();

    for (std::uint32_t b = 0; b < kBlocks + 32; ++b) {
        const Addr addr = static_cast<Addr>(b) * kBlockBytes;
        const NodeId home = homeOf(addr, kNodes);
        const DirectorySlice::EntryView gv =
            grow_rig.dirs[home]->inspect(addr);
        const DirectorySlice::EntryView rv =
            ref_rig.dirs[home]->inspect(addr);
        ASSERT_EQ(static_cast<int>(gv.state), static_cast<int>(rv.state))
            << "block " << b;
        ASSERT_EQ(gv.sharers, rv.sharers) << "block " << b;
        ASSERT_EQ(gv.owner, rv.owner) << "block " << b;
    }
    for (NodeId n = 0; n < kNodes; ++n) {
        ASSERT_TRUE(grow_rig.dirs[n]->quiescent());
        ASSERT_TRUE(ref_rig.dirs[n]->quiescent());
        const DirectorySlice& g = *grow_rig.dirs[n];
        const DirectorySlice& r = *ref_rig.dirs[n];
        EXPECT_EQ(g.statGetS, r.statGetS);
        EXPECT_EQ(g.statGetM, r.statGetM);
        EXPECT_EQ(g.statWritebacks, r.statWritebacks);
        EXPECT_EQ(g.statInvalidationsSent, r.statInvalidationsSent);
        EXPECT_EQ(g.statMemReads, r.statMemReads);
        EXPECT_EQ(g.statStaleWritebacks, r.statStaleWritebacks);
        EXPECT_EQ(g.statQueuedRequests, r.statQueuedRequests);
    }
}

// ------------------------------ directory transient state: slot slab

namespace {

/** Fill-waiter context: once the block is writable, add one to its
 *  first word, then bump *done. */
struct IncrementOnFill
{
    CacheAgent* agent = nullptr;
    Addr addr = 0;
    int* done = nullptr;
};

FillWaiter
incrementWaiter(IncrementOnFill* ctx)
{
    return {[](void* owner, std::uint64_t) {
                auto* c = static_cast<IncrementOnFill*>(owner);
                c->agent->writeWordL1(
                    c->addr, c->agent->readWordL1(c->addr) + 1, false, 0);
                ++*c->done;
            },
            ctx, 0};
}

/** Lines the watchdog dump prints for @p dir: one per busy block. */
int
transientLines(const DirectorySlice& dir)
{
    std::FILE* f = std::tmpfile();
    if (f == nullptr)
        return -1;
    dir.dumpTransients(f);
    std::rewind(f);
    int lines = 0;
    for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f))
        lines += c == '\n' ? 1 : 0;
    std::fclose(f);
    return lines;
}

} // namespace

TEST(DirectoryHomes, SlabAndIndexGrowUnderLiveTransactions)
{
    // One slice holds more concurrently busy blocks than the transient
    // index's initial 16 slots, eight of them with writers queued behind
    // the first. The index rehashes and the slot slab reallocates
    // (moving every live transaction and waiting queue) while those
    // transactions are in flight; each must still complete with the
    // right data.
    constexpr std::uint32_t kNodes = 4;
    constexpr std::uint32_t kBlocks = 40;
    constexpr std::uint32_t kContended = 8;
    constexpr NodeId kHome = 0;
    const DirectoryParams dp{400, 5};   // memory slower than the burst
    Rig rig(kNodes, AgentParams{}, dp);
    DirectorySlice& dir = *rig.dirs[kHome];

    // The first kBlocks blocks homed here take the burst; the next
    // kBlocks are fresh blocks for the slot-reuse phase.
    std::vector<Addr> blocks;
    for (Addr b = 0; blocks.size() < 2 * kBlocks; ++b) {
        if (homeOf(b * kBlockBytes, kNodes) == kHome)
            blocks.push_back(b * kBlockBytes);
    }
    for (std::uint32_t i = 0; i < kBlocks; ++i) {
        BlockData d;
        d.writeWord(0, 1000 + i);
        rig.mem.writeBlock(blocks[i], d);
    }

    std::vector<IncrementOnFill> ctx;
    ctx.reserve(kBlocks * kNodes);   // waiters point into it
    int done = 0;
    int issued = 0;
    for (std::uint32_t i = 0; i < kBlocks; ++i) {
        const std::uint32_t writers = i < kContended ? kNodes : 1;
        for (std::uint32_t w = 0; w < writers; ++w) {
            const NodeId n = (i + w) % kNodes;
            ctx.push_back({rig.agents[n].get(), blocks[i], &done});
            ASSERT_TRUE(rig.agents[n]->request(blocks[i], true,
                                               incrementWaiter(&ctx.back())));
            ++issued;
        }
    }
    // Every request has reached the home; no memory read is back yet.
    rig.eq.advanceTo(rig.eq.now() + 200);
    EXPECT_EQ(transientLines(dir), static_cast<int>(kBlocks));
    EXPECT_EQ(dir.statQueuedRequests, kContended * (kNodes - 1));
    EXPECT_FALSE(dir.quiescent());

    rig.settle();
    EXPECT_EQ(done, issued);
    EXPECT_TRUE(dir.quiescent());
    EXPECT_EQ(transientLines(dir), 0);
    for (std::uint32_t i = 0; i < kBlocks; ++i) {
        const std::uint32_t writers = i < kContended ? kNodes : 1;
        const NodeId reader = (i + 1) % kNodes;
        rig.fetch(reader, blocks[i], false);
        EXPECT_EQ(rig.agents[reader]->readWordL1(blocks[i]),
                  1000u + i + writers)
            << "block " << i;
    }

    // A slot reused by a different block starts idle: one reader per
    // fresh block never queues (a stale busy flag would park it).
    const std::uint64_t queued = dir.statQueuedRequests;
    int reads = 0;
    for (std::uint32_t i = kBlocks; i < 2 * kBlocks; ++i) {
        ASSERT_TRUE(rig.agents[i % kNodes]->request(blocks[i], false,
                                                    countWaiter(&reads)));
    }
    rig.settle();
    EXPECT_EQ(reads, static_cast<int>(kBlocks));
    EXPECT_EQ(dir.statQueuedRequests, queued);
    EXPECT_TRUE(dir.quiescent());
}

// ------------------------------------------ local fills as retry records

namespace {

/** (tag, cycle) of every completed local-fill waiter, in order. */
struct FillLog
{
    const EventQueue* eq = nullptr;
    std::vector<std::pair<std::uint64_t, Cycle>> done;
};

/** FillWaiter record that appends (@p tag, now) to @p log. */
FillWaiter
logWaiter(FillLog* log, std::uint64_t tag)
{
    return {[](void* owner, std::uint64_t arg) {
                FillLog& l = *static_cast<FillLog*>(owner);
                l.done.emplace_back(arg, l.eq->now());
            },
            log, tag};
}

/**
 * Request one local fill per entry of @p blocks in a single tick (all
 * blocks L2-resident) and check the retry-record contract: each waiter
 * is one scheduled and one executed event, the records due at one tick
 * share one queue node, and they complete in request order at
 * now + l2Latency.
 */
void
expectLocalFillsShareOneNode(const std::vector<Addr>& blocks)
{
    Rig rig(2);
    for (Addr b : blocks)
        rig.fetch(0, b, false);   // make the block locally resident

    const std::uint64_t scheduled = rig.eq.scheduledCount();
    const std::uint64_t executed = rig.eq.executedCount();
    const std::uint64_t nodes = rig.eq.dispatchedNodes();
    const Cycle due = rig.eq.now() + rig.agents[0]->params().l2Latency;
    FillLog log{&rig.eq, {}};
    std::vector<std::pair<std::uint64_t, Cycle>> expected;
    for (std::uint64_t i = 0; i < blocks.size(); ++i) {
        ASSERT_TRUE(rig.agents[0]->request(blocks[i], false,
                                           logWaiter(&log, i)));
        expected.emplace_back(i, due);
    }
    EXPECT_EQ(rig.eq.scheduledCount() - scheduled, blocks.size());
    EXPECT_EQ(rig.eq.size(), blocks.size());
    rig.settle();
    EXPECT_EQ(rig.eq.executedCount() - executed, blocks.size());
    EXPECT_EQ(rig.eq.dispatchedNodes() - nodes, 1u);
    EXPECT_EQ(log.done, expected);
}

} // namespace

TEST(CacheAgentBatch, SameTickLocalFillsToOneBlockShareOneNode)
{
    expectLocalFillsShareOneNode({0xb000, 0xb000, 0xb000, 0xb000, 0xb000});
}

TEST(CacheAgentBatch, SameTickLocalFillsToTwoBlocksShareOneNode)
{
    expectLocalFillsShareOneNode({0xc000, 0xd000, 0xc000});
}
