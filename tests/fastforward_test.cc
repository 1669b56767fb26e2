/**
 * @file
 * Quiescence-aware fast-forward equivalence suite.
 *
 * The System's event-driven scheduler (INVISIFENCE_FASTFWD, default on)
 * must be an invisible optimization: for every implementation kind,
 * workload, and seed, running with the per-cycle legacy loop and with
 * fast-forward enabled must produce bit-identical RunResults — same
 * retired counts, same cycle breakdowns, same speculation statistics.
 * This file also pins the runUntilDone completion contract (the event
 * queue must be drained before completion is declared) and the
 * Section 6.6 sweep configuration of makeImpl (commit-on-violate applied
 * uniformly to every selective variant, including two-checkpoint).
 */

#include <gtest/gtest.h>

#include "core/invisifence.hh"
#include "harness/runner.hh"
#include "test_util.hh"
#include "workload/workloads.hh"

namespace invisifence {
namespace {

using test::allImplKinds;
using test::expectIdenticalResults;
using test::makeScripted;
using test::taddr;

RunConfig
ffConfig(std::uint64_t seed, int fast_forward)
{
    RunConfig cfg;
    cfg.warmupCycles = 400;
    cfg.measureCycles = 2500;
    cfg.seed = seed;
    cfg.system = SystemParams::small(4);
    cfg.system.fastForward = fast_forward;
    return cfg;
}

TEST(FastForward, BitIdenticalResultsAcrossAllImplKindsAndSeeds)
{
    const Workload& wl = workloadSuite().front();
    for (const ImplKind kind : allImplKinds()) {
        for (const std::uint64_t seed : {1ull, 23ull, 456ull}) {
            SCOPED_TRACE(std::string(implKindName(kind)) + " seed=" +
                         std::to_string(seed));
            const RunResult off =
                runExperiment(wl, kind, ffConfig(seed, 0));
            const RunResult on =
                runExperiment(wl, kind, ffConfig(seed, 1));
            expectIdenticalResults(off, on);
        }
    }
}

TEST(FastForward, BitIdenticalResultsAcrossWorkloads)
{
    for (const Workload& wl : workloadSuite()) {
        SCOPED_TRACE(wl.name);
        const RunResult off =
            runExperiment(wl, ImplKind::ConvSC, ffConfig(7, 0));
        const RunResult on =
            runExperiment(wl, ImplKind::ConvSC, ffConfig(7, 1));
        expectIdenticalResults(off, on);
    }
}

TEST(FastForward, BitIdenticalAtMultiWordRobSize)
{
    // A 65-entry ROB spans two slot-mask words with one bit in the
    // second, so the mask-driven nextWorkAt() readiness memo and the
    // execute walk cross a word boundary and the ring wrap.
    const Workload& wl = workloadSuite().front();
    for (const ImplKind kind : {ImplKind::InvisiSC, ImplKind::ConvRMO}) {
        SCOPED_TRACE(implKindName(kind));
        RunConfig off = ffConfig(23, 0);
        RunConfig on = ffConfig(23, 1);
        off.system.core.robSize = 65;
        on.system.core.robSize = 65;
        expectIdenticalResults(runExperiment(wl, kind, off),
                               runExperiment(wl, kind, on));
    }
}

TEST(FastForward, SkipsCyclesOnStallDominatedRuns)
{
    // Guard against the optimization silently disabling itself: under
    // conventional SC the store-buffer drain stalls must produce
    // dormant core cycles.
    const Workload& wl = workloadSuite().front();
    RunConfig cfg = ffConfig(1, 1);
    std::vector<std::unique_ptr<ThreadProgram>> programs;
    for (std::uint32_t t = 0; t < cfg.system.numCores; ++t) {
        programs.push_back(std::make_unique<SyntheticProgram>(
            wl.params, t, cfg.seed));
    }
    System sys(cfg.system, std::move(programs), ImplKind::ConvSC);
    warmSystem(sys, wl.params);
    sys.run(4000);
    EXPECT_GT(sys.statFastForwardedCycles, 0u);
    EXPECT_TRUE(sys.fastForwardEnabled());
}

TEST(FastForward, EnvOverrideViaSystemParams)
{
    const std::vector<std::vector<ScriptOp>> scripts{{opStore(taddr(0), 1)}};
    {
        SystemParams p = SystemParams::small(1);
        p.fastForward = 0;
        auto sys = makeScripted(scripts, ImplKind::ConvSC, p);
        EXPECT_FALSE(sys->fastForwardEnabled());
    }
    {
        SystemParams p = SystemParams::small(1);
        p.fastForward = 1;
        auto sys = makeScripted(scripts, ImplKind::ConvSC, p);
        EXPECT_TRUE(sys->fastForwardEnabled());
    }
}

// ---------------------------------------------------------------------
// runUntilDone completion contract
// ---------------------------------------------------------------------

/**
 * A store sweep that overflows a deliberately tiny L2, so the final
 * eviction writebacks (PutM -> WbAck round trips) are still in flight
 * when the last core retires and drains. The old completion condition
 * (cores done, queue ignored) returned true at that instant with the
 * acks pending; requiring eq.empty() closes the gap.
 */
TEST(RunUntilDone, CompletionRequiresDrainedEventQueue)
{
    for (const int ff : {0, 1}) {
        SCOPED_TRACE(ff ? "fastfwd" : "legacy");
        SystemParams params = SystemParams::small(2);
        params.fastForward = ff;
        params.agent.l1Size = 2 * 1024;
        params.agent.l2Size = 8 * 1024;   // 128 blocks: evictions at tail
        std::vector<std::vector<ScriptOp>> scripts(2);
        for (std::uint32_t b = 0; b < 200; ++b)
            scripts[0].push_back(opStore(taddr(b), b + 1));
        scripts[1].push_back(opLoad(taddr(0)));
        auto sys = makeScripted(std::move(scripts), ImplKind::ConvTSO,
                                params);
        ASSERT_TRUE(sys->runUntilDone(300000));
        // The fix under test: completion implies no in-flight events.
        EXPECT_TRUE(sys->eventQueue().empty())
            << "runUntilDone returned with coherence traffic in flight";
        for (std::uint32_t i = 0; i < sys->numCores(); ++i) {
            EXPECT_TRUE(sys->core(i).done());
            EXPECT_TRUE(sys->impl(i).quiesced());
        }
        // Stats sampled at this instant are final: running further must
        // not change any retirement counter.
        const std::uint64_t retired = sys->totalRetired();
        const Breakdown bd = sys->totalBreakdown();
        sys->run(500);
        EXPECT_EQ(sys->totalRetired(), retired);
        EXPECT_EQ(sys->totalBreakdown().busy, bd.busy);
        EXPECT_EQ(sys->totalBreakdown().violation, bd.violation);
    }
}

TEST(RunUntilDone, LegacyAndFastForwardAgreeOnCompletionTime)
{
    const auto finish = [](int ff) {
        SystemParams params = SystemParams::small(2);
        params.fastForward = ff;
        std::vector<std::vector<ScriptOp>> scripts(2);
        for (std::uint32_t b = 0; b < 12; ++b) {
            scripts[0].push_back(opStore(taddr(b), b + 1));
            scripts[1].push_back(opLoad(taddr(b)));
        }
        auto sys = makeScripted(std::move(scripts), ImplKind::ConvSC,
                                params);
        EXPECT_TRUE(sys->runUntilDone(300000));
        return sys->now();
    };
    EXPECT_EQ(finish(0), finish(1));
}

// ---------------------------------------------------------------------
// Section 6.6 sweep configuration (makeImpl uniformity)
// ---------------------------------------------------------------------

TEST(MakeImpl, SelectiveCovAppliesToEverySelectiveVariant)
{
    const std::vector<ImplKind> selective = {
        ImplKind::InvisiSC, ImplKind::InvisiTSO, ImplKind::InvisiRMO,
        ImplKind::InvisiSC2Ckpt};
    for (const bool cov : {false, true}) {
        SystemParams params = SystemParams::small(1);
        params.selectiveCov = cov;
        for (const ImplKind kind : selective) {
            SCOPED_TRACE(std::string(implKindName(kind)) +
                         (cov ? " cov" : " plain"));
            auto sys = makeScripted({{opStore(taddr(0), 1)}}, kind,
                                    params);
            const auto* spec =
                dynamic_cast<const SpeculativeImpl*>(&sys->impl(0));
            ASSERT_NE(spec, nullptr);
            EXPECT_EQ(spec->config().commitOnViolate, cov);
        }
    }
}

TEST(MakeImpl, TwoCheckpointSelectiveKeepsItsShape)
{
    // The CoV fix must not disturb the rest of the Figure 11 preset.
    SystemParams params = SystemParams::small(1);
    params.selectiveCov = true;
    auto sys =
        makeScripted({{opStore(taddr(0), 1)}}, ImplKind::InvisiSC2Ckpt,
                     params);
    const auto* spec =
        dynamic_cast<const SpeculativeImpl*>(&sys->impl(0));
    ASSERT_NE(spec, nullptr);
    EXPECT_EQ(spec->config().numCheckpoints, 2u);
    EXPECT_EQ(spec->config().sbEntries, 32u);
    EXPECT_EQ(spec->config().model, Model::SC);
    EXPECT_FALSE(spec->config().continuous);
}

} // namespace
} // namespace invisifence
