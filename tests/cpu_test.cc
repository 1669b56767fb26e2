/** @file Core pipeline tests: dispatch/retire, forwarding, squash and
 *  replay, journaling, halting. Single- and dual-core scripted systems,
 *  plus the ROB ring and its age-ordered slot-mask walk. */

#include <gtest/gtest.h>

#include "cpu/rob.hh"
#include "test_util.hh"

using namespace invisifence;
using namespace invisifence::test;

namespace {

/** Small-system parameters for @p cores cores with a @p rob_size ROB. */
SystemParams
robParams(std::uint32_t cores, std::uint32_t rob_size)
{
    SystemParams p = SystemParams::small(cores);
    p.core.robSize = rob_size;
    return p;
}

void
checkInRobForwarding(const SystemParams& p)
{
    // The store has not retired when the load issues; the value must
    // come from the window.
    auto sys = makeScripted(
        {{opStore(taddr(1), 5), opLoad(taddr(1)), opLoad(taddr(1))}},
        ImplKind::ConvSC, p);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(1)), 5u);
    EXPECT_GE(sys->core(0).statLoadForwards, 1u);
}

void
checkSpinMispredicts(const SystemParams& p)
{
    // Thread 1 spins while thread 0 delays: at least one mispredict
    // (spin predicted the flag ready before it was).
    std::vector<ScriptOp> t0;
    for (int i = 0; i < 100; ++i)
        t0.push_back(opAlu(4));
    t0.push_back(opStore(taddr(4), 1));
    auto sys = makeScripted({t0, {opSpinUntilEq(taddr(4), 1)}},
                            ImplKind::ConvRMO, p);
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_GE(sys->core(1).statMispredicts, 1u);
}

void
checkCas(const SystemParams& p, std::uint64_t expect,
         std::uint64_t observed)
{
    auto sys = makeScripted(
        {{opStore(taddr(5), 10), opCas(taddr(5), expect, 20),
          opLoad(taddr(5))}},
        ImplKind::ConvRMO, p);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(5)), observed);
    EXPECT_EQ(sys->memory().readWord(taddr(5)), 0u);   // still cached
}

void
checkSnoopSquash(const SystemParams& p)
{
    // Core 1 reads X twice with work in between; core 0 writes X in the
    // middle. Any in-window reordering that read stale data must be
    // squashed, so the two loads never observe "new then old".
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
        std::vector<ScriptOp> t0;
        for (std::uint64_t i = 0; i < 10 + seed * 7; ++i)
            t0.push_back(opAlu(2));
        t0.push_back(opStore(taddr(12), 1));
        std::vector<ScriptOp> t1 = {opLoad(taddr(12)), opAlu(8),
                                    opLoad(taddr(12))};
        auto sys = makeScripted({t0, t1}, ImplKind::ConvSC, p);
        ASSERT_TRUE(sys->runUntilDone(200000));
        const auto& j = sys->core(1).journal();
        std::vector<std::uint64_t> loads;
        for (const auto& r : j)
            if (r.type == OpType::Load)
                loads.push_back(r.result);
        ASSERT_EQ(loads.size(), 2u);
        EXPECT_FALSE(loads[0] == 1 && loads[1] == 0)
            << "coherence order violated (seed " << seed << ")";
    }
}

/** Indices the age-ordered walk of @p m visits, in visit order. */
std::vector<std::size_t>
walked(const Rob& rob, Rob::Mask m)
{
    std::vector<std::size_t> out;
    rob.forEachMarked(m, [&](std::size_t i) {
        out.push_back(i);
        return true;
    });
    return out;
}

/** Indices of the entries @p pred selects, ascending (oldest first). */
template <typename Pred>
std::vector<std::size_t>
selected(const Rob& rob, Pred pred)
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < rob.size(); ++i) {
        if (pred(rob.at(i)))
            out.push_back(i);
    }
    return out;
}

} // namespace

// ---------------------------------------------------------------------
// Rob ring and slot masks
// ---------------------------------------------------------------------

TEST(Rob, MaskWalkVisitsMarkedEntriesOldestFirstAcrossTheWrap)
{
    // Single-word, word-boundary and multi-word masks, each with the
    // ring's head placed so the window wraps at several offsets.
    for (const std::uint32_t cap : {1u, 63u, 64u, 65u, 130u}) {
        for (const std::uint32_t offset :
             {0u, 1u, cap / 2, cap - 1, 63u % cap, 64u % cap}) {
            SCOPED_TRACE("capacity " + std::to_string(cap) + " head " +
                         std::to_string(offset));
            Rob rob(cap);
            InstSeq seq = 1;
            for (std::uint32_t k = 0; k < offset; ++k) {
                rob.push().seq = seq++;
                rob.mark(Rob::Mask::Pending, rob.head());
                rob.popHead();   // drops the popped slot's bits
            }
            ASSERT_TRUE(rob.none(Rob::Mask::Pending));
            while (!rob.full())
                rob.push().seq = seq++;
            const auto pending = [](const RobEntry& e) {
                return e.seq % 3 == 0 || e.seq % 7 == 1;
            };
            const auto bound = [](const RobEntry& e) {
                return e.seq % 5 == 2;
            };
            for (std::size_t i = 0; i < rob.size(); ++i) {
                // Slot <-> index round trip: the sequence search and
                // the walk's slot-to-index map both land on i.
                ASSERT_EQ(rob.indexOf(rob.at(i).seq),
                          static_cast<std::ptrdiff_t>(i));
                if (pending(rob.at(i)))
                    rob.mark(Rob::Mask::Pending, rob.at(i));
                if (bound(rob.at(i)))
                    rob.mark(Rob::Mask::Bound, rob.at(i));
            }
            EXPECT_EQ(walked(rob, Rob::Mask::Pending),
                      selected(rob, pending));
            EXPECT_EQ(walked(rob, Rob::Mask::Bound),
                      selected(rob, bound));
            EXPECT_EQ(rob.count(Rob::Mask::Pending),
                      selected(rob, pending).size());

            // squashAfter drops the bits of every removed slot.
            const std::size_t keep = rob.size() / 2;
            rob.squashAfter(keep);
            EXPECT_EQ(rob.size(), keep + 1);
            EXPECT_EQ(walked(rob, Rob::Mask::Pending),
                      selected(rob, pending));
            EXPECT_EQ(walked(rob, Rob::Mask::Bound),
                      selected(rob, bound));
            EXPECT_EQ(rob.count(Rob::Mask::Bound),
                      selected(rob, bound).size());

            // Refill: the reused slots start unmarked.
            const auto survivors = [&](const auto& pred) {
                std::vector<std::size_t> v = selected(rob, pred);
                while (!v.empty() && v.back() > keep)
                    v.pop_back();
                return v;
            };
            while (!rob.full())
                rob.push().seq = seq++;
            EXPECT_EQ(walked(rob, Rob::Mask::Pending), survivors(pending));
            EXPECT_EQ(walked(rob, Rob::Mask::Bound), survivors(bound));

            rob.clear();
            EXPECT_TRUE(rob.none(Rob::Mask::Pending));
            EXPECT_TRUE(rob.none(Rob::Mask::Bound));
            EXPECT_TRUE(walked(rob, Rob::Mask::Pending).empty());
        }
    }
}

TEST(Rob, MaskWalkSeesLiveBitsAndStops)
{
    // 130 slots with the head at 100: the window spans the wrap and
    // three mask words.
    Rob rob(130);
    InstSeq seq = 1;
    for (std::uint32_t k = 0; k < 100; ++k) {
        rob.push().seq = seq++;
        rob.popHead();
    }
    while (!rob.full())
        rob.push().seq = seq++;
    for (const std::size_t i : {0u, 5u, 10u, 29u, 30u, 31u, 120u})
        rob.mark(Rob::Mask::Pending, rob.at(i));

    // Callbacks clear their own bits; the one at index 5 also unmarks a
    // younger entry in the same mask word (slot 110) and marks two
    // younger ones, in the same word (index 20, slot 120) and past the
    // wrap (index 64, slot 34), plus an older one (index 2). The walk
    // follows the live bits ahead of its cursor; the older mark waits
    // for the next walk.
    std::vector<std::size_t> order;
    rob.forEachMarked(Rob::Mask::Pending, [&](std::size_t i) {
        order.push_back(i);
        rob.unmark(Rob::Mask::Pending, rob.at(i));
        if (i == 5) {
            rob.unmark(Rob::Mask::Pending, rob.at(10));
            rob.mark(Rob::Mask::Pending, rob.at(20));
            rob.mark(Rob::Mask::Pending, rob.at(64));
            rob.mark(Rob::Mask::Pending, rob.at(2));
        }
        return true;
    });
    EXPECT_EQ(order,
              (std::vector<std::size_t>{0, 5, 20, 29, 30, 31, 64, 120}));
    EXPECT_EQ(walked(rob, Rob::Mask::Pending), (std::vector<std::size_t>{2}));

    // Returning false stops the walk.
    for (const std::size_t i : {40u, 90u, 110u})
        rob.mark(Rob::Mask::Pending, rob.at(i));
    std::vector<std::size_t> first_two;
    rob.forEachMarked(Rob::Mask::Pending, [&](std::size_t i) {
        first_two.push_back(i);
        return first_two.size() < 2;
    });
    EXPECT_EQ(first_two, (std::vector<std::size_t>{2, 40}));
}

TEST(CorePipeline, AluStreamRetiresAtFullWidth)
{
    std::vector<ScriptOp> ops;
    for (int i = 0; i < 400; ++i)
        ops.push_back(opAlu(1));
    auto sys = makeScripted({ops}, ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    // 400 single-cycle ops on a 4-wide core: ~100 cycles + small ramp.
    EXPECT_LT(sys->now(), 140u);
    EXPECT_EQ(sys->core(0).statRetired, 400u);
}

TEST(CorePipeline, LoadReturnsStoredValue)
{
    auto sys = makeScripted(
        {{opStore(taddr(0), 321), opLoad(taddr(0))}}, ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(0)), 321u);
}

TEST(CorePipeline, InRobForwardingBeatsTheCache)
{
    checkInRobForwarding(SystemParams::small(1));
}

TEST(CorePipeline, StoreBufferForwardingUnderTso)
{
    // Under TSO the store sits in the FIFO SB while the load retires:
    // classic same-core store-to-load forwarding.
    auto sys = makeScripted(
        {{opStore(taddr(2), 77),
          opAlu(1), opAlu(1), opAlu(1), opAlu(1), opAlu(1), opAlu(1),
          opAlu(1), opAlu(1), opAlu(1), opAlu(1), opAlu(1), opAlu(1),
          opLoad(taddr(2))}},
        ImplKind::ConvTSO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(2)), 77u);
}

TEST(CorePipeline, SpinLoadEventuallyObservesFlag)
{
    auto sys = makeScripted(
        {{opStore(taddr(3), 1)},
         {opSpinUntilEq(taddr(3), 1), opLoad(taddr(3))}},
        ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(200000));
    EXPECT_EQ(lastLoadOf(*sys, 1, taddr(3)), 1u);
}

TEST(CorePipeline, SpinMispredictsUntilSatisfied)
{
    checkSpinMispredicts(SystemParams::small(2));
}

TEST(CorePipeline, CasSucceedsAndWrites)
{
    checkCas(SystemParams::small(1), 10, 20);
}

TEST(CorePipeline, FailedCasWritesNothing)
{
    checkCas(SystemParams::small(1), 99, 10);
}

TEST(CorePipeline, FetchAddAccumulates)
{
    auto sys = makeScripted(
        {{opFetchAdd(taddr(7), 3), opFetchAdd(taddr(7), 4),
          opLoad(taddr(7))}},
        ImplKind::ConvRMO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(7)), 7u);
}

TEST(CorePipeline, JournalRecordsCommittedMemOpsInOrder)
{
    auto sys = makeScripted(
        {{opStore(taddr(8), 1), opLoad(taddr(8)), opFence(),
          opStore(taddr(9), 2)}},
        ImplKind::ConvSC);
    ASSERT_TRUE(sys->runUntilDone(100000));
    const auto& j = sys->core(0).journal();
    ASSERT_EQ(j.size(), 3u);   // fences are not memory ops
    EXPECT_EQ(j[0].type, OpType::Store);
    EXPECT_EQ(j[1].type, OpType::Load);
    EXPECT_EQ(j[1].result, 1u);
    EXPECT_EQ(j[2].addr, wordAlign(taddr(9)));
}

TEST(CorePipeline, DoneRequiresDrainedStoreBuffer)
{
    auto sys = makeScripted({{opStore(taddr(10), 1)}},
                            ImplKind::ConvTSO);
    ASSERT_TRUE(sys->runUntilDone(100000));
    EXPECT_TRUE(sys->core(0).done());
    // The store made it into the cache hierarchy.
    EXPECT_TRUE(sys->agent(0).l1Writable(taddr(10)));
    EXPECT_EQ(sys->agent(0).readWordL1(taddr(10)), 1u);
}

TEST(CorePipeline, HaltedEmptyProgramFinishesImmediately)
{
    auto sys = makeScripted({{}}, ImplKind::ConvRMO);
    EXPECT_TRUE(sys->runUntilDone(1000));
}

TEST(CorePipeline, DeterministicAcrossIdenticalRuns)
{
    const auto run = []() {
        std::vector<ScriptOp> t0, t1;
        for (std::uint32_t i = 0; i < 50; ++i) {
            t0.push_back(opStore(taddr(11) + (i % 7) * kBlockBytes,
                                 static_cast<std::uint64_t>(i)));
            t1.push_back(opLoad(taddr(11) + (i % 5) * kBlockBytes));
        }
        auto sys = makeScripted({t0, t1}, ImplKind::ConvTSO);
        sys->runUntilDone(200000);
        return sys->now();
    };
    EXPECT_EQ(run(), run());
}

TEST(CorePipeline, LoadQueueSnoopSquashesStaleLoad)
{
    checkSnoopSquash(SystemParams::small(2));
}

/**
 * The forwarding, CAS, mispredict and snoop-squash programs at ROB sizes
 * whose slot masks are one partial word (1, 63), exactly one word (64),
 * just past a word boundary (65) and three words (130). Debug builds
 * check both masks against a full-window scan every tick.
 */
class CorePipelineRobSize : public ::testing::TestWithParam<std::uint32_t>
{};

TEST_P(CorePipelineRobSize, ProgramsHoldAtEveryMaskGeometry)
{
    const std::uint32_t rob = GetParam();
    {
        SCOPED_TRACE("forwarding");
        checkInRobForwarding(robParams(1, rob));
    }
    {
        SCOPED_TRACE("cas");
        checkCas(robParams(1, rob), 10, 20);
        checkCas(robParams(1, rob), 99, 10);
    }
    {
        SCOPED_TRACE("mispredict");
        checkSpinMispredicts(robParams(2, rob));
    }
    {
        SCOPED_TRACE("snoop squash");
        checkSnoopSquash(robParams(2, rob));
    }
}

INSTANTIATE_TEST_SUITE_P(MaskGeometry, CorePipelineRobSize,
                         ::testing::Values(1u, 63u, 64u, 65u, 130u));
