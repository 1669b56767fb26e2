/** @file InvisiFence mechanism tests: speculation triggers, flash
 *  commit/abort, cleaning writebacks, store-buffer discipline, CoV,
 *  checkpoints, continuous chunks, ASO commit drain. */

#include <gtest/gtest.h>

#include "core/invisifence.hh"
#include "test_util.hh"

using namespace invisifence;
using namespace invisifence::test;

namespace {

SpeculativeImpl&
spec(System& sys, std::uint32_t core)
{
    auto* s = dynamic_cast<SpeculativeImpl*>(&sys.impl(core));
    EXPECT_NE(s, nullptr);
    return *s;
}

/** Test system with slow memory: store misses dominate run time. */
SystemParams
slowMem(std::uint32_t cores)
{
    SystemParams p = SystemParams::small(cores);
    p.dir.memLatency = 400;
    return p;
}

/** Warm blocks, then a long store miss followed by dependent work. */
std::vector<ScriptOp>
missThenWork(Addr missAddr, std::uint32_t work)
{
    std::vector<ScriptOp> s;
    for (std::uint32_t b = 0; b < 4; ++b)
        s.push_back(opLoad(taddr(30) + b * kBlockBytes));
    s.push_back(opAlu(250));
    s.push_back(opStore(missAddr, 1));
    for (std::uint32_t i = 0; i < work; ++i) {
        s.push_back(opLoad(taddr(30) + (i % 4) * kBlockBytes));
        s.push_back(opAlu(1));
    }
    return s;
}

} // namespace

TEST(SpecConfigTest, PresetsMatchThePaper)
{
    const SpecConfig sel = SpecConfig::selective(Model::SC);
    EXPECT_EQ(sel.numCheckpoints, 1u);
    EXPECT_EQ(sel.sbEntries, 8u);      // eight-entry coalescing SB
    EXPECT_FALSE(sel.continuous);

    const SpecConfig sel2 = SpecConfig::selective(Model::SC, 2);
    EXPECT_EQ(sel2.sbEntries, 32u);    // 32 entries with two checkpoints

    const SpecConfig cont = SpecConfig::continuousMode(false);
    EXPECT_TRUE(cont.continuous);
    EXPECT_EQ(cont.numCheckpoints, 2u);
    EXPECT_EQ(cont.minChunkSize, 100u);

    const SpecConfig aso = SpecConfig::aso();
    EXPECT_TRUE(aso.unboundedSb);
    EXPECT_EQ(aso.commitDrainPerStore, 1u);
}

TEST(SpecConfigTest, Names)
{
    EXPECT_EQ(SpecConfig::selective(Model::SC).name(), "invisi_sc");
    EXPECT_EQ(SpecConfig::selective(Model::RMO).name(), "invisi_rmo");
    EXPECT_EQ(SpecConfig::selective(Model::TSO, 2).name(),
              "invisi_tso_2ckpt");
    EXPECT_EQ(SpecConfig::continuousMode(true).name(), "invisi_cont_cov");
    EXPECT_EQ(SpecConfig::aso().name(), "aso_sc");
}

TEST(SelectiveSc, SpeculatesOnLoadBehindStoreMiss)
{
    // A store miss followed by loads: conventional SC stalls the loads;
    // Invisi_sc must instead start a speculation and commit it.
    auto sys = makeScripted({missThenWork(taddr(41), 20)},
                            ImplKind::InvisiSC, slowMem(2));
    // Make the store miss: the block's home is remote and unprimed.
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_GE(spec(*sys, 0).statSpeculations, 1u);
    EXPECT_GE(spec(*sys, 0).statCommits, 1u);
    EXPECT_EQ(spec(*sys, 0).statAborts, 0u);
    // After commit no speculative bits remain.
    EXPECT_EQ(sys->agent(0).specFootprint(), 0u);
}

TEST(SelectiveRmo, DoesNotSpeculateWithoutFencesOrAtomics)
{
    auto sys = makeScripted({missThenWork(taddr(42), 20)},
                            ImplKind::InvisiRMO, slowMem(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_EQ(spec(*sys, 0).statSpeculations, 0u);
}

TEST(SelectiveRmo, FenceBehindStoreMissTriggersSpeculation)
{
    std::vector<ScriptOp> s = {opStore(taddr(43), 1), opFence()};
    for (int i = 0; i < 10; ++i)
        s.push_back(opAlu(1));
    auto sys = makeScripted({s}, ImplKind::InvisiRMO,
                            SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_GE(spec(*sys, 0).statSpeculations, 1u);
    EXPECT_GE(spec(*sys, 0).statCommits, 1u);
}

TEST(SelectiveTso, StoreBehindStoreMissTriggersSpeculation)
{
    // Two stores to distinct blocks: the second retires while the first
    // is still pending, which the unordered SB may only do speculatively
    // under TSO.
    std::vector<ScriptOp> s = {opStore(taddr(44), 1),
                               opStore(taddr(45), 2)};
    auto sys = makeScripted({s}, ImplKind::InvisiTSO,
                            SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_GE(spec(*sys, 0).statSpeculations, 1u);
}

TEST(SelectiveSc, AbortRestoresPreSpeculativeMemory)
{
    // Core 0 speculates past a store miss and speculatively overwrites
    // block V (an L1 hit); core 1 then writes V, forcing a violation.
    // After the abort and re-execution, the final value of V must be
    // core 0's value written AFTER core 1's (program replays), and at
    // no point may core 1 observe a speculative value.
    std::vector<ScriptOp> t0;
    t0.push_back(opLoad(taddr(46)));          // warm V
    t0.push_back(opAlu(50));
    t0.push_back(opStore(taddr(47), 1));      // miss (remote home)
    t0.push_back(opStore(taddr(46), 111));    // speculative write to V
    for (int i = 0; i < 30; ++i)
        t0.push_back(opAlu(2));
    std::vector<ScriptOp> t1;
    t1.push_back(opAlu(100));
    t1.push_back(opStore(taddr(46), 222));    // conflicting write
    auto sys = makeScripted({t0, t1}, ImplKind::InvisiSC);
    ASSERT_TRUE(sys->runUntilDone(400000));
    // Core 0 re-executed its store after the abort, so the final
    // architectural value reflects a serializable outcome: whichever
    // store serialized last. Core 0 replays after core 1's write, so:
    std::uint64_t final_v = 0;
    for (std::uint32_t n = 0; n < sys->numCores(); ++n)
        if (sys->agent(n).l1Readable(taddr(46)))
            final_v = sys->agent(n).readWordL1(taddr(46));
    EXPECT_TRUE(final_v == 111 || final_v == 222);
    EXPECT_EQ(sys->agent(0).specFootprint(), 0u);
    EXPECT_EQ(sys->agent(1).specFootprint(), 0u);
}

TEST(SelectiveSc, ViolationCyclesAppearOnAbort)
{
    std::vector<ScriptOp> t0;
    t0.push_back(opLoad(taddr(48)));
    t0.push_back(opAlu(50));
    t0.push_back(opStore(taddr(49), 1));      // miss starts speculation
    for (int i = 0; i < 40; ++i) {
        t0.push_back(opLoad(taddr(48)));      // spec-read V repeatedly
        t0.push_back(opAlu(2));
    }
    std::vector<ScriptOp> t1 = {opAlu(120), opStore(taddr(48), 5)};
    auto sys = makeScripted({t0, t1}, ImplKind::InvisiSC);
    ASSERT_TRUE(sys->runUntilDone(400000));
    if (spec(*sys, 0).statAborts > 0) {
        EXPECT_GT(sys->core(0).breakdown().violation, 0u);
    }
}

TEST(Cleaning, DirtyBlockPreservedAcrossAbort)
{
    // Sequence on core 0: non-speculative store makes V dirty (value 7);
    // speculation starts; a speculative store to V requires a cleaning
    // writeback first; core 1's conflicting read of the speculatively
    // written block aborts core 0; the pre-speculative value 7 must
    // still be visible (from the L2), never the speculative 8.
    std::vector<ScriptOp> t0;
    t0.push_back(opStore(taddr(50), 7));      // dirty, non-speculative
    t0.push_back(opAlu(60));                  // let it land in the L1
    t0.push_back(opStore(taddr(51), 1));      // remote miss: speculate
    t0.push_back(opStore(taddr(50), 8));      // spec write needs cleaning
    for (int i = 0; i < 40; ++i)
        t0.push_back(opAlu(3));
    std::vector<ScriptOp> t1 = {opAlu(150), opLoad(taddr(50))};
    auto sys = makeScripted({t0, t1}, ImplKind::InvisiSC);
    ASSERT_TRUE(sys->runUntilDone(400000));
    const std::uint64_t seen = lastLoadOf(*sys, 1, taddr(50));
    // Core 1 may see 7 (pre-spec) or 8 (after commit/replay), and it may
    // defer behind the violation; it must never see garbage or cause a
    // hang. The speculative 8 is only legal once committed.
    EXPECT_TRUE(seen == 7 || seen == 8) << "saw " << seen;
    EXPECT_GE(sys->agent(0).statCleanWritebacks +
                  spec(*sys, 0).statCleanings,
              1u);
}

TEST(ForwardProgress, RepeatedConflictsStillComplete)
{
    // Two cores ping-pong conflicting speculative writes; bounded
    // timeouts and the one-instruction non-speculative rule must ensure
    // both programs finish.
    std::vector<std::vector<ScriptOp>> scripts;
    for (std::uint32_t t = 0; t < 2; ++t) {
        std::vector<ScriptOp> s;
        for (int i = 0; i < 30; ++i) {
            s.push_back(opStore(taddr(52), t * 100 + static_cast<std::uint32_t>(i)));
            s.push_back(opStore(taddr(53 + t), 1));
            s.push_back(opLoad(taddr(52)));
        }
        scripts.push_back(std::move(s));
    }
    auto sys = makeScripted(std::move(scripts), ImplKind::InvisiSC);
    EXPECT_TRUE(sys->runUntilDone(2000000));
}

TEST(CommitOnViolate, DeferredRequestEventuallyServed)
{
    std::vector<ScriptOp> t0;
    t0.push_back(opLoad(taddr(54)));
    t0.push_back(opAlu(40));
    t0.push_back(opStore(taddr(55), 1));      // speculate
    t0.push_back(opStore(taddr(54), 9));      // spec-written block
    for (int i = 0; i < 50; ++i)
        t0.push_back(opAlu(2));
    std::vector<ScriptOp> t1 = {opAlu(150), opLoad(taddr(54))};
    auto sys = makeScripted({t0, t1}, ImplKind::ContinuousCoV);
    ASSERT_TRUE(sys->runUntilDone(1000000));
    auto& s0 = spec(*sys, 0);
    // The external read conflicted with a speculatively-written block:
    // with CoV it must have been deferred, and the system still finished
    // with the reader seeing a committed value.
    if (s0.statConflicts > 0) {
        EXPECT_GE(s0.statCovDeferrals, 1u);
    }
    const std::uint64_t seen = lastLoadOf(*sys, 1, taddr(54));
    EXPECT_TRUE(seen == 0 || seen == 9) << seen;
}

TEST(CommitOnViolate, TimeoutBoundsDeferral)
{
    SystemParams params = SystemParams::small(2);
    params.covTimeout = 300;
    std::vector<ScriptOp> t0;
    t0.push_back(opLoad(taddr(56)));
    t0.push_back(opAlu(40));
    t0.push_back(opStore(taddr(57), 1));
    t0.push_back(opStore(taddr(56), 9));
    // Keep the speculation alive with a continuous store-miss stream so
    // it cannot commit before the timeout.
    for (std::uint32_t i = 0; i < 60; ++i)
        t0.push_back(opStore(taddr(58) + (i % 6) * kBlockBytes,
                             static_cast<std::uint64_t>(i)));
    std::vector<ScriptOp> t1 = {opAlu(150), opLoad(taddr(56))};
    auto sys = makeScripted({t0, t1}, ImplKind::ContinuousCoV, params);
    ASSERT_TRUE(sys->runUntilDone(2000000));
    // Either the speculation committed in time or the timeout aborted
    // it; both terminate the deferral.
    auto& s0 = spec(*sys, 0);
    EXPECT_EQ(sys->agent(0).hasDeferred(), false);
    (void)s0;
}

TEST(Continuous, EverythingRetiresSpeculatively)
{
    std::vector<ScriptOp> s;
    for (int i = 0; i < 300; ++i)
        s.push_back(opAlu(1));
    auto sys = makeScripted({s}, ImplKind::Continuous,
                            SystemParams::small(1));
    ASSERT_TRUE(sys->runUntilDone(200000));
    auto& sp = spec(*sys, 0);
    EXPECT_GE(sp.statSpeculations, 2u);      // chunking took checkpoints
    EXPECT_EQ(sp.statSpecRetired, 300u);     // all committed speculatively
    EXPECT_EQ(sp.statAborts, 0u);
}

TEST(Continuous, ChunksRespectMinimumSize)
{
    SystemParams params = SystemParams::small(1);
    params.minChunkSize = 50;
    std::vector<ScriptOp> s;
    for (int i = 0; i < 500; ++i)
        s.push_back(opAlu(1));
    auto sys = makeScripted({s}, ImplKind::Continuous, params);
    ASSERT_TRUE(sys->runUntilDone(200000));
    auto& sp = spec(*sys, 0);
    // 500 instructions in >=50-instruction chunks: at most ~11 chunks
    // (the final partial chunk commits at idle).
    EXPECT_LE(sp.statCommits, 11u);
    EXPECT_GE(sp.statCommits, 2u);
}

TEST(TwoCheckpoints, SelectiveUsesBoth)
{
    SystemParams params = slowMem(2);
    params.minChunkSize = 20;
    std::vector<ScriptOp> s;
    for (std::uint32_t b = 0; b < 3; ++b)
        s.push_back(opLoad(taddr(61) + b * kBlockBytes));
    s.push_back(opAlu(250));
    s.push_back(opStore(taddr(60), 1));   // miss: speculate
    for (std::uint32_t i = 0; i < 120; ++i) {
        s.push_back(opLoad(taddr(61) + (i % 3) * kBlockBytes));
        s.push_back(opAlu(1));
    }
    auto sys = makeScripted({s}, ImplKind::InvisiSC2Ckpt, params);
    ASSERT_TRUE(sys->runUntilDone(400000));
    EXPECT_GE(spec(*sys, 0).statSpeculations, 2u);
    EXPECT_EQ(spec(*sys, 0).statAborts, 0u);
}

TEST(Aso, CommitDrainBlocksExternalInterface)
{
    auto sys = makeScripted({missThenWork(taddr(62), 30)},
                            ImplKind::Aso, slowMem(2));
    ASSERT_TRUE(sys->runUntilDone(400000));
    auto& sp = spec(*sys, 0);
    EXPECT_GE(sp.statCommits, 1u);
    EXPECT_FALSE(sys->agent(0).externalBlocked());   // unblocked after
}

TEST(SpecBits, CommitLeavesDataAbortRemovesIt)
{
    // Direct mechanism check through a tiny system: speculative write
    // hits, commit publishes it, and the footprint counter tracks bits.
    std::vector<ScriptOp> s;
    s.push_back(opLoad(taddr(63)));       // warm (exclusive grant)
    s.push_back(opAlu(50));
    s.push_back(opStore(taddr(64), 1));   // miss: speculate
    s.push_back(opStore(taddr(63), 42));  // spec write, direct hit
    auto sys = makeScripted({s}, ImplKind::InvisiSC,
                            SystemParams::small(2));
    ASSERT_TRUE(sys->runUntilDone(400000));
    EXPECT_EQ(sys->agent(0).specFootprint(), 0u);
    EXPECT_EQ(sys->agent(0).readWordL1(taddr(63)), 42u);
    EXPECT_EQ(spec(*sys, 0).statAborts, 0u);
}

TEST(SpecOverflow, TinyL1ForcesResolutionWithoutHanging)
{
    // 2-way 1KB L1: a speculation touching many blocks must trigger the
    // overflow machinery (deferred fills, commit pressure) and still
    // complete correctly.
    SystemParams params = slowMem(2);
    params.agent.l1Size = 1024;
    std::vector<ScriptOp> s;
    for (std::uint32_t i = 0; i < 48; ++i)
        s.push_back(opLoad(taddr(66) + i * kBlockBytes));   // warm L2
    s.push_back(opAlu(250));
    s.push_back(opStore(taddr(65), 1));   // miss: speculate
    for (std::uint32_t i = 0; i < 48; ++i)
        s.push_back(opLoad(taddr(66) + i * kBlockBytes));
    auto sys = makeScripted({s}, ImplKind::InvisiSC, params);
    ASSERT_TRUE(sys->runUntilDone(2000000));
    EXPECT_GE(sys->agent(0).statForcedSpecEvictions +
                  sys->agent(0).statDeferredFills,
              1u);
    EXPECT_EQ(sys->agent(0).specFootprint(), 0u);
}

namespace {

/** What one stepped two-core overflow run did, cycle by cycle. */
struct OverflowTrace
{
    std::vector<Cycle> fills[2];      //!< cycle of every L1 fill
    std::vector<Cycle> bothRefused;   //!< cycles both cores were refused
    std::uint64_t deferredFills[2] = {0, 0};
    std::uint64_t deferredFillEpisodes[2] = {0, 0};
    std::uint64_t forcedSpecEvictions[2] = {0, 0};
    std::uint64_t commits[2] = {0, 0};
    std::uint64_t aborts[2] = {0, 0};
    Cycle doneAt = 0;
};

/**
 * Two InvisiSC cores on 2-way 1KB L1s each warm 24 blocks into their
 * L2, start a speculation with a store miss, and re-read the blocks 41
 * instructions apart, so every load executes after the previous one
 * retired and marked its line: the marked lines fill each L1 set and
 * later fills are refused (Section 4.1 overflow) until the store
 * drains. The run is stepped one cycle at a time to record every fill
 * completion and every cycle in which both cores' retries were refused.
 * A non-empty @p third script runs on a third core.
 */
OverflowTrace
runOverflowPair(Cycle mem_latency, ImplKind kind = ImplKind::InvisiSC,
                std::vector<ScriptOp> third = {})
{
    SystemParams params = slowMem(third.empty() ? 2 : 3);
    params.agent.l1Size = 1024;
    params.dir.memLatency = mem_latency;
    std::vector<std::vector<ScriptOp>> scripts(2);
    for (std::uint32_t c = 0; c < 2; ++c) {
        const std::uint32_t base = 400 + 100 * c;
        std::vector<ScriptOp>& s = scripts[c];
        for (std::uint32_t i = 0; i < 24; ++i)
            s.push_back(opLoad(taddr(base + 1 + i)));   // warm L2
        s.push_back(opAlu(250));
        s.push_back(opStore(taddr(base), 1));   // miss: speculate
        for (std::uint32_t i = 0; i < 24; ++i) {
            s.push_back(opLoad(taddr(base + 1 + i)));
            for (std::uint32_t g = 0; g < 40; ++g)
                s.push_back(opAlu(1));
        }
    }
    if (!third.empty())
        scripts.push_back(std::move(third));
    auto sys = makeScripted(scripts, kind, params);
    OverflowTrace t;
    std::uint64_t fills[2] = {0, 0};
    std::uint64_t deferred[2] = {0, 0};
    bool done = false;
    for (Cycle step = 0; step < 100000 && !done; ++step) {
        done = sys->runUntilDone(1);
        bool refused[2] = {false, false};
        for (std::uint32_t c = 0; c < 2; ++c) {
            const CacheAgent& a = sys->agent(c);
            const std::uint64_t f =
                a.statL1FillsLocal + a.statL1FillsRemote;
            for (; fills[c] < f; ++fills[c])
                t.fills[c].push_back(sys->now());
            refused[c] = a.statDeferredFills != deferred[c];
            deferred[c] = a.statDeferredFills;
        }
        if (refused[0] && refused[1])
            t.bothRefused.push_back(sys->now());
    }
    EXPECT_TRUE(done);
    t.doneAt = sys->now();
    for (std::uint32_t c = 0; c < 2; ++c) {
        t.deferredFills[c] = sys->agent(c).statDeferredFills;
        t.deferredFillEpisodes[c] = sys->agent(c).statDeferredFillEpisodes;
        t.forcedSpecEvictions[c] = sys->agent(c).statForcedSpecEvictions;
        t.commits[c] = spec(*sys, c).statCommits;
        t.aborts[c] = spec(*sys, c).statAborts;
        EXPECT_EQ(sys->agent(c).specFootprint(), 0u);
    }
    return t;
}

/** Cycles in [first, last] stepping by 10: one retry per period. */
std::vector<Cycle>
everyTenth(Cycle first, Cycle last)
{
    std::vector<Cycle> v;
    for (Cycle c = first; c <= last; c += 10)
        v.push_back(c);
    return v;
}

} // namespace

TEST(SpecOverflow, TwoCoresRefusedInTheSameCycleResolveByCommit)
{
    // Pins the overflow-retry path exactly: both cores' retries are due
    // in the same cycles (so they share one queue tick), the store
    // drains at memory latency 400, and the commit lets the waiting
    // fills complete. Every value below is the reference behaviour.
    const OverflowTrace t = runOverflowPair(400);
    EXPECT_EQ(t.fills[0],
              (std::vector<Cycle>{
                  414, 415, 415, 416, 417, 417, 418, 419, 419, 420, 421,
                  421, 452, 452, 453, 454, 454, 455, 456, 456, 457, 458,
                  458, 459, 470, 481, 491, 501, 511, 522, 532, 542, 552,
                  563, 573, 583, 593, 872, 874, 882, 892, 902, 913, 923,
                  933, 943}));
    EXPECT_EQ(t.fills[1],
              (std::vector<Cycle>{
                  414, 414, 415, 416, 416, 417, 418, 418, 419, 420, 420,
                  421, 452, 453, 453, 454, 455, 455, 456, 457, 457, 458,
                  459, 459, 459, 471, 481, 491, 501, 512, 522, 532, 542,
                  553, 563, 573, 583, 594, 911, 914, 921, 931, 942, 952,
                  962, 972, 983}));
    EXPECT_EQ(t.bothRefused, everyTenth(604, 864));
    EXPECT_EQ(t.deferredFills[0], 27u);
    EXPECT_EQ(t.deferredFills[1], 31u);
    for (std::uint32_t c = 0; c < 2; ++c) {
        // One waiting local fill per core: its attempt 0 opens the
        // episode; every later refusal is a retry of the same one.
        EXPECT_EQ(t.deferredFillEpisodes[c], 1u);
        EXPECT_EQ(t.forcedSpecEvictions[c], t.deferredFills[c]);
        EXPECT_EQ(t.commits[c], 1u);
        EXPECT_EQ(t.aborts[c], 0u);
    }
    EXPECT_EQ(t.doneAt, 1013u);
}

TEST(SpecOverflow, StuckDrainReachesTheHardAbortAtAttempt200)
{
    // Memory latency 3000 outlasts the retry bound: each core's waiting
    // fill is refused on attempts 0..200 (every 10 cycles from 3204),
    // attempt 200 hard-aborts the speculation, and attempt 201 installs
    // at 5214. Every value below is the reference behaviour.
    const OverflowTrace t = runOverflowPair(3000);
    EXPECT_EQ(t.fills[0],
              (std::vector<Cycle>{
                  3014, 3015, 3015, 3016, 3017, 3017, 3018, 3019, 3019,
                  3020, 3021, 3021, 3052, 3052, 3053, 3054, 3054, 3055,
                  3056, 3056, 3057, 3058, 3058, 3059, 3070, 3081, 3091,
                  3101, 3111, 3122, 3132, 3142, 3152, 3163, 3173, 3183,
                  3193, 5214, 6072, 6123, 6205, 6226, 6236, 6246, 6257,
                  6267, 6277, 6287}));
    EXPECT_EQ(t.fills[1],
              (std::vector<Cycle>{
                  3014, 3014, 3015, 3016, 3016, 3017, 3018, 3018, 3019,
                  3020, 3020, 3021, 3052, 3053, 3053, 3054, 3055, 3055,
                  3056, 3057, 3057, 3058, 3059, 3059, 3059, 3071, 3081,
                  3091, 3101, 3112, 3122, 3132, 3142, 3153, 3163, 3173,
                  3183, 3194, 5214, 6111, 6162, 6244, 6265, 6275, 6285,
                  6296, 6306, 6316, 6326}));
    EXPECT_EQ(t.bothRefused, everyTenth(3204, 5204));
    for (std::uint32_t c = 0; c < 2; ++c) {
        EXPECT_EQ(t.deferredFillEpisodes[c], 1u);
        EXPECT_EQ(t.deferredFills[c], 201u);
        EXPECT_EQ(t.forcedSpecEvictions[c], 201u);
        EXPECT_EQ(t.commits[c], 0u);
        EXPECT_EQ(t.aborts[c], 1u);
    }
    EXPECT_EQ(t.doneAt, 6356u);
}

namespace {

/**
 * Third-core script: a store to @p block that issues only after a
 * 3000-cycle miss and a 250-cycle ALU op, so its request reaches core
 * 0 at 3336, while core 0's fill to block 417 is being refused.
 */
std::vector<ScriptOp>
lateWriter(Addr block)
{
    std::vector<ScriptOp> s;
    s.push_back(opLoad(taddr(600)));
    for (std::uint32_t i = 0; i < 100; ++i)
        s.push_back(opAlu(1));   // fills the ROB behind the miss
    s.push_back(opAlu(250));
    s.push_back(opStore(block, 7));
    return s;
}

} // namespace

TEST(SpecOverflow, ExternalInvalidationEndsTheRefusal)
{
    // The stuck-drain pair plus a late writer to core 0's
    // speculatively-read block 401. Core 0's waiting fill is refused
    // from 3204 until the write's invalidation aborts its speculation
    // at 3336; the next attempt installs at 3344. Core 1 still waits
    // for the hard abort. Every value below is the reference behaviour.
    const OverflowTrace t = runOverflowPair(3000, ImplKind::InvisiSC,
                                            lateWriter(taddr(401)));
    EXPECT_EQ(t.fills[0],
              (std::vector<Cycle>{
                  3014, 3015, 3016, 3017, 3018, 3019, 3020, 3021, 3052,
                  3052, 3053, 3053, 3054, 3054, 3055, 3055, 3056, 3056,
                  3057, 3057, 3058, 3058, 3059, 3059, 3081, 3112, 3132,
                  3142, 3163, 3173, 3194, 3344, 3389, 6111, 6162, 6173,
                  6244, 6255, 6265, 6275, 6285, 6296, 6306, 6316, 6326}));
    EXPECT_EQ(t.bothRefused, everyTenth(3204, 3334));
    EXPECT_EQ(t.deferredFills[0], 14u);
    EXPECT_EQ(t.forcedSpecEvictions[0], 14u);
    EXPECT_EQ(t.aborts[0], 1u);
    EXPECT_EQ(t.deferredFills[1], 201u);
    EXPECT_EQ(t.forcedSpecEvictions[1], 201u);
    EXPECT_EQ(t.aborts[1], 1u);
    for (std::uint32_t c = 0; c < 2; ++c) {
        EXPECT_EQ(t.deferredFillEpisodes[c], 1u);
        EXPECT_EQ(t.commits[c], 0u);
    }
    EXPECT_EQ(t.doneAt, 6356u);
}

TEST(SpecOverflow, StolenBlockEndsTheRefusal)
{
    // The late writer takes block 417 itself, which core 0's waiting
    // local fill wants and its L1 does not hold: no conflict, only the
    // L2 copy is invalidated. The next attempt finds the block gone and
    // wakes the load, whose refetch (forwarded by the writer) arrives at
    // 3396 and is refused in a second episode until its attempt 200
    // hard-aborts at 5396. Every value below is the reference
    // behaviour.
    const OverflowTrace t = runOverflowPair(3000, ImplKind::InvisiSC,
                                            lateWriter(taddr(417)));
    EXPECT_EQ(t.fills[0],
              (std::vector<Cycle>{
                  3014, 3015, 3016, 3017, 3018, 3019, 3020, 3021, 3052,
                  3052, 3053, 3053, 3054, 3054, 3055, 3055, 3056, 3056,
                  3057, 3057, 3058, 3058, 3059, 3059, 3081, 3112, 3132,
                  3142, 3163, 3173, 3194, 3396, 6111, 6162, 6244, 6265,
                  6275, 6285, 6296, 6306, 6316, 6326}));
    EXPECT_EQ(t.deferredFills[0], 215u);
    EXPECT_EQ(t.deferredFillEpisodes[0], 2u);
    EXPECT_EQ(t.forcedSpecEvictions[0], 215u);
    EXPECT_EQ(t.deferredFills[1], 201u);
    for (std::uint32_t c = 0; c < 2; ++c) {
        EXPECT_EQ(t.commits[c], 0u);
        EXPECT_EQ(t.aborts[c], 1u);
    }
    EXPECT_EQ(t.doneAt, 6356u);
}

TEST(SpecOverflow, CommitInsideResolveSpecEvictionEndsTheRefusal)
{
    // The pair under INVISIFENCE-CONTINUOUS at memory latency 400. The
    // waiting fills are refused until attempt 200 hard-aborts both
    // speculations at 2419. At 2429 core 0's attempt 201 finds its set
    // full of a new chunk's speculative lines, and resolveSpecEviction
    // commits that chunk: the fill installs and counts one forced
    // eviction more than refusals. Core 1 does the same at 4439, ten
    // cycles after its next hard abort. Every value below is the
    // reference behaviour.
    const OverflowTrace t = runOverflowPair(400, ImplKind::Continuous);
    EXPECT_EQ(t.fills[0],
              (std::vector<Cycle>{
                  414,  415,  415,  416,  417,  417,  418,  419,  419,
                  420,  421,  421,  452,  452,  453,  454,  454,  455,
                  456,  456,  457,  458,  458,  459,  2423, 2423, 2424,
                  2424, 2424, 2425, 2425, 2426, 2427, 2427, 2428, 2428,
                  2429, 2429, 2430, 2430, 2431, 2439, 2450, 2687, 2697,
                  2707, 2718, 2728, 2738, 3089, 4754, 4758, 5052, 5083,
                  5093, 5103, 5113, 5124, 5134, 5144, 5154, 5165, 5175,
                  5185, 5195, 5206, 5216}));
    EXPECT_EQ(t.deferredFills[0], 1168u);
    EXPECT_EQ(t.deferredFills[1], 1967u);
    EXPECT_EQ(t.deferredFillEpisodes[0], 6u);
    EXPECT_EQ(t.deferredFillEpisodes[1], 10u);
    for (std::uint32_t c = 0; c < 2; ++c)
        EXPECT_EQ(t.forcedSpecEvictions[c], t.deferredFills[c] + 1);
    EXPECT_EQ(t.doneAt, 7267u);
}

TEST(Quiesce, SpeculativeImplsReportQuiescedOnlyWhenClean)
{
    auto sys = makeScripted({missThenWork(taddr(67), 5)},
                            ImplKind::InvisiSC, slowMem(2));
    ASSERT_TRUE(sys->runUntilDone(400000));
    EXPECT_TRUE(sys->impl(0).quiesced());
    EXPECT_FALSE(sys->impl(0).speculating());
}
