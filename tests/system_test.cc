/** @file System/harness tests: Figure-6 configuration, determinism,
 *  warm start, the experiment runner, and a full-matrix smoke sweep. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/table.hh"
#include "workload/synthetic.hh"
#include "test_util.hh"

using namespace invisifence;
using namespace invisifence::test;

TEST(SystemConfig, PaperParametersMatchFigure6)
{
    const SystemParams p = SystemParams::paper();
    EXPECT_EQ(p.numCores, 16u);
    EXPECT_EQ(p.core.width, 4u);
    EXPECT_EQ(p.core.robSize, 96u);
    EXPECT_EQ(p.agent.l1Size, 64u * 1024);
    EXPECT_EQ(p.agent.l1Ways, 2u);
    EXPECT_EQ(p.agent.l1Latency, 2u);          // 2-cycle load-to-use
    EXPECT_EQ(p.agent.l2Size, 8u * 1024 * 1024);
    EXPECT_EQ(p.agent.l2Ways, 8u);
    EXPECT_EQ(p.agent.l2Latency, 25u);
    EXPECT_EQ(p.agent.victimEntries, 16u);     // 16-entry victim cache
    EXPECT_EQ(p.agent.mshrs, 32u);
    const TorusDims dims = torusDims(p.net, p.numCores);
    EXPECT_EQ(dims.x, 4u);                     // 4x4 torus (derived)
    EXPECT_EQ(dims.y, 4u);
    EXPECT_EQ(p.dir.memLatency, 160u);         // 40 ns at 4 GHz
    EXPECT_EQ(p.covTimeout, 4000u);            // CoV timeout interval
    EXPECT_EQ(p.minChunkSize, 100u);           // ~100-instruction chunks
}

TEST(SystemConfig, StorageOverheadIsAboutOneKilobyte)
{
    // The paper's headline: ~1KB of additional state (Section 1).
    const SystemParams p = SystemParams::paper();
    const std::uint64_t l1_blocks = p.agent.l1Size / kBlockBytes;
    const std::uint64_t bits = 2 * l1_blocks;            // read+written
    const std::uint64_t sb_bytes = 8 * (kBlockBytes + 8);  // 8 entries
    const std::uint64_t ckpt_bytes = ProgSnapshot::kMaxBytes;
    const std::uint64_t total = bits / 8 + sb_bytes + ckpt_bytes;
    EXPECT_EQ(bits, 2048u);                    // 2k bits (Section 3.1)
    EXPECT_LT(total, 1200u);                   // ~1KB
}

TEST(SystemDeterminism, IdenticalRunsProduceIdenticalStats)
{
    const auto run = [](ImplKind kind) {
        RunConfig cfg;
        cfg.warmupCycles = 2000;
        cfg.measureCycles = 6000;
        cfg.system = SystemParams::small(4);
        cfg.system.net.dimX = 2;
        cfg.system.net.dimY = 2;
        return runExperiment(workloadByName("Apache"), kind, cfg);
    };
    for (ImplKind kind : {ImplKind::ConvSC, ImplKind::InvisiSC,
                          ImplKind::Continuous}) {
        const RunResult a = run(kind);
        const RunResult b = run(kind);
        EXPECT_EQ(a.retired, b.retired) << implKindName(kind);
        EXPECT_EQ(a.breakdown.busy, b.breakdown.busy);
        EXPECT_EQ(a.breakdown.sbDrain, b.breakdown.sbDrain);
        EXPECT_EQ(a.speculatingCycles, b.speculatingCycles);
    }
}

TEST(SystemDeterminism, SeedsChangeResults)
{
    RunConfig a;
    a.warmupCycles = 2000;
    a.measureCycles = 6000;
    a.system = SystemParams::small(4);
    a.system.net.dimX = 2;
    a.system.net.dimY = 2;
    RunConfig b = a;
    b.seed = 99;
    const RunResult ra =
        runExperiment(workloadByName("Apache"), ImplKind::ConvRMO, a);
    const RunResult rb =
        runExperiment(workloadByName("Apache"), ImplKind::ConvRMO, b);
    EXPECT_NE(ra.retired, rb.retired);
}

TEST(Runner, SharesSumToOne)
{
    RunConfig cfg;
    cfg.warmupCycles = 3000;
    cfg.measureCycles = 8000;
    cfg.system = SystemParams::small(4);
    cfg.system.net.dimX = 2;
    cfg.system.net.dimY = 2;
    const RunResult r =
        runExperiment(workloadByName("Barnes"), ImplKind::InvisiSC, cfg);
    const BreakdownShares s = shares(r);
    // In-flight speculative cycles at window edges smear; aborts can
    // reclassify pre-window cycles into Violation.
    EXPECT_NEAR(s.busy + s.other + s.sbFull + s.sbDrain + s.violation,
                1.0, 0.12);
}

TEST(Runner, NormalizedSharesScaleWithThroughputRatio)
{
    RunResult fast, slow;
    fast.retired = 2000;
    fast.coreCycles = 1000;
    fast.breakdown.busy = 500;
    fast.breakdown.other = 500;
    slow.retired = 1000;
    slow.coreCycles = 1000;
    slow.breakdown.busy = 400;
    slow.breakdown.other = 600;
    const BreakdownShares n = normalizedShares(fast, slow);
    // fast is 2x the baseline throughput: its normalized runtime is 0.5.
    EXPECT_NEAR(n.busy + n.other, 0.5, 1e-9);
}

TEST(Runner, WarmStartReducesColdMisses)
{
    RunConfig cold;
    cold.warmupCycles = 1000;
    cold.measureCycles = 5000;
    cold.warmStart = false;
    cold.system = SystemParams::small(4);
    cold.system.net.dimX = 2;
    cold.system.net.dimY = 2;
    cold.system.agent.l2Size = 2 * 1024 * 1024;
    cold.system.agent.l1Size = 64 * 1024;
    RunConfig warm = cold;
    warm.warmStart = true;
    const auto& wl = workloadByName("Barnes");
    const RunResult rc = runExperiment(wl, ImplKind::ConvRMO, cold);
    const RunResult rw = runExperiment(wl, ImplKind::ConvRMO, warm);
    EXPECT_GT(rw.throughput(), rc.throughput());
}

TEST(Runner, MshrFullStallsSurfaceWhenMshrsAreScarce)
{
    // One fetch MSHR per node: concurrent misses must hit the full
    // condition, and the stall episodes must flow through the stat
    // registry into the RunResult (JSON schema v2 fields).
    RunConfig scarce;
    scarce.warmupCycles = 1000;
    scarce.measureCycles = 8000;
    scarce.system = SystemParams::small(4);
    scarce.system.net.dimX = 2;
    scarce.system.net.dimY = 2;
    scarce.system.agent.mshrs = 1;
    scarce.warmStart = false;   // cold caches: plenty of misses
    const RunResult r = runExperiment(workloadByName("Barnes"),
                                      ImplKind::ConvRMO, scarce);
    EXPECT_GT(r.mshrFullStalls, 0u);

    // With the paper's 32 MSHRs the same run should stall rarely, if
    // at all — the counter must not be an artifact of the wiring.
    RunConfig ample = scarce;
    ample.system.agent.mshrs = 32;
    const RunResult ra = runExperiment(workloadByName("Barnes"),
                                       ImplKind::ConvRMO, ample);
    EXPECT_LT(ra.mshrFullStalls, r.mshrFullStalls);
}

TEST(Runner, FaultCountersFlowFromTheRegistry)
{
    // Drops and duplicates injected, retries armed: the v3 counters must
    // be nonzero, and the backoff high-water mark must be the max of the
    // per-agent registry values at window end, not a sum or a delta.
    RunConfig cfg;
    cfg.warmupCycles = 400;
    cfg.measureCycles = 6000;
    cfg.system = SystemParams::small(4);
    cfg.system.fault.seed = 99;
    cfg.system.fault.dropPer64k = 1500;
    cfg.system.fault.dupPer64k = 1500;
    cfg.system.agent.retryTimeout = 800;
    cfg.system.agent.retryBackoffCap = 8000;
    const Workload& wl = workloadByName("Barnes");
    const RunResult r = runExperiment(wl, ImplKind::InvisiSC, cfg);
    EXPECT_GT(r.retries, 0u);
    EXPECT_GT(r.dropsInjected, 0u);
    EXPECT_GT(r.dupsSquashed, 0u);

    // Replay the same run by hand and read each agent at window end.
    std::vector<std::unique_ptr<ThreadProgram>> programs;
    for (std::uint32_t t = 0; t < cfg.system.numCores; ++t) {
        programs.push_back(
            std::make_unique<SyntheticProgram>(wl.params, t, cfg.seed));
    }
    System sys(cfg.system, std::move(programs), ImplKind::InvisiSC);
    warmSystem(sys, wl.params, benchEnv().warmSharers);
    sys.run(cfg.warmupCycles);
    sys.run(cfg.measureCycles);
    std::uint64_t backoff_max = 0;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        backoff_max = std::max(
            backoff_max, sys.stats().get("core" + std::to_string(i) +
                                         ".agent.retry_backoff_max"));
    }
    EXPECT_GT(backoff_max, 0u);
    EXPECT_EQ(r.timeoutBackoffMax, backoff_max);
}

TEST(Table, FormatsAlignedColumns)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", Table::num(1.5, 2)});
    t.addRow({"b", Table::pct(0.123)});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== demo =="), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("12.3%"), std::string::npos);
}

TEST(Table, NumbersRound)
{
    EXPECT_EQ(Table::num(1.005, 1), "1.0");
    EXPECT_EQ(Table::num(2.0, 0), "2");
    EXPECT_EQ(Table::pct(1.0), "100.0%");
}

// ----------------------------- full matrix smoke sweep -------------------

namespace {

struct SmokeParam
{
    const char* workload;
    ImplKind kind;
};

std::string
smokeName(const ::testing::TestParamInfo<SmokeParam>& info)
{
    std::string n = std::string(info.param.workload) + "_" +
                    implKindName(info.param.kind);
    for (auto& c : n)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return n;
}

class SmokeMatrix : public ::testing::TestWithParam<SmokeParam>
{
};

} // namespace

TEST_P(SmokeMatrix, RunsCleanAndAccountsEveryCycle)
{
    RunConfig cfg;
    cfg.warmupCycles = 1500;
    cfg.measureCycles = 4000;
    cfg.system.numCores = 8;
    cfg.system.net.dimX = 4;
    cfg.system.net.dimY = 2;
    cfg.system.agent.l2Size = 1024 * 1024;
    const RunResult r = runExperiment(workloadByName(GetParam().workload),
                                      GetParam().kind, cfg);
    EXPECT_GT(r.retired, 0u);
    // In-flight speculative cycles at the window edges fold in when
    // their checkpoint commits/aborts, so allow a small smear.
    const double total = static_cast<double>(r.breakdown.total());
    EXPECT_NEAR(total, static_cast<double>(r.coreCycles),
                0.15 * static_cast<double>(r.coreCycles));
    EXPECT_GT(r.throughput(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SmokeMatrix,
    ::testing::ValuesIn([] {
        std::vector<SmokeParam> v;
        for (const char* w : {"Apache", "Zeus", "OLTP-Oracle", "OLTP-DB2",
                              "DSS-DB2", "Barnes", "Ocean"}) {
            for (ImplKind k : allImplKinds())
                v.push_back({w, k});
        }
        return v;
    }()),
    smokeName);
