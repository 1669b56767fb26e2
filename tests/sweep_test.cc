/** @file Sweep-equivalence suite: the parallel sharded runner must be a
 *  drop-in replacement for the serial loop it deleted. For the same grid
 *  the RunResults must be bit-identical to serial execution for 1, 2,
 *  and 8 worker threads (any divergence means a worker leaked state into
 *  another's simulator instance), and the generic map() fan-out must
 *  preserve index order and propagate exceptions. Runs under the
 *  ASan/UBSan unit tier; INVISIFENCE_BENCH_CYCLES scales the grid for
 *  the stress tier. */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "harness/sweep.hh"
#include "test_util.hh"
#include "workload/workloads.hh"

namespace invisifence {
namespace {

RunConfig
smallConfig()
{
    RunConfig cfg;
    // Stress tier raises the window via INVISIFENCE_BENCH_CYCLES; the
    // default keeps the unit tier fast.
    const Cycle cycles =
        benchEnv().measureCycles > 0 ? benchEnv().measureCycles : 1000;
    cfg.warmupCycles = cycles / 5;
    cfg.measureCycles = cycles;
    cfg.seed = 5;
    cfg.system = SystemParams::small(4);
    return cfg;
}

std::vector<SweepPoint>
smallGrid(std::uint32_t numSeeds)
{
    const std::vector<Workload> workloads = {workloadSuite()[0],
                                             workloadSuite()[3]};
    const std::vector<ImplKind> kinds = {
        ImplKind::ConvSC, ImplKind::ConvTSO, ImplKind::InvisiSC,
        ImplKind::Continuous};
    return sweepGrid(workloads, kinds, smallConfig(), numSeeds);
}

using test::expectIdenticalResults;

TEST(Sweep, ParallelBitIdenticalToSerialFor1And2And8Workers)
{
    const std::vector<SweepPoint> grid = smallGrid(2);
    std::vector<RunResult> serial;
    for (const SweepPoint& p : grid)
        serial.push_back(runExperiment(p.workload, p.kind, p.cfg));

    for (const std::uint32_t jobs : {1u, 2u, 8u}) {
        SCOPED_TRACE(testing::Message() << jobs << " workers");
        const SweepRunner runner(jobs);
        EXPECT_EQ(runner.jobs(), jobs);
        const std::vector<RunResult> parallel = runner.run(grid);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i) {
            SCOPED_TRACE(testing::Message() << "grid point " << i);
            expectIdenticalResults(parallel[i], serial[i]);
        }
    }
}

TEST(Sweep, RepeatedParallelRunsAreBitIdentical)
{
    const std::vector<SweepPoint> grid = smallGrid(1);
    const SweepRunner runner(8);
    const std::vector<RunResult> a = runner.run(grid);
    const std::vector<RunResult> b = runner.run(grid);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdenticalResults(a[i], b[i]);
}

TEST(Sweep, GridOrderIsWorkloadMajorThenKindThenSeed)
{
    const std::vector<SweepPoint> grid = smallGrid(2);
    ASSERT_EQ(grid.size(), 2u * 4u * 2u);
    EXPECT_EQ(grid[0].workload.name, workloadSuite()[0].name);
    EXPECT_EQ(grid[0].kind, ImplKind::ConvSC);
    EXPECT_EQ(grid[0].cfg.seed, 5u);
    EXPECT_EQ(grid[1].cfg.seed, 6u);
    EXPECT_EQ(grid[2].kind, ImplKind::ConvTSO);
    EXPECT_EQ(grid[8].workload.name, workloadSuite()[3].name);
}

TEST(Sweep, RunStatsGroupsSeedRunsPerPoint)
{
    const std::vector<Workload> workloads = {workloadSuite()[0]};
    const std::vector<ImplKind> kinds = {ImplKind::ConvSC,
                                         ImplKind::InvisiSC};
    const SweepRunner runner(2);
    const std::vector<SweepStats> stats =
        runner.runStats(workloads, kinds, smallConfig(), 3);
    ASSERT_EQ(stats.size(), 2u);
    for (const SweepStats& s : stats) {
        EXPECT_EQ(s.workload, workloads[0].name);
        ASSERT_EQ(s.runs.size(), 3u);
        EXPECT_EQ(s.runs[0].seed, 5u);
        EXPECT_EQ(s.runs[1].seed, 6u);
        EXPECT_EQ(s.runs[2].seed, 7u);
        EXPECT_EQ(s.throughput().n, 3u);
        EXPECT_EQ(&s.primary(), &s.runs[0]);
    }
    EXPECT_EQ(stats[0].impl, implKindName(ImplKind::ConvSC));
    EXPECT_EQ(stats[1].impl, implKindName(ImplKind::InvisiSC));
}

TEST(Sweep, MapPreservesIndexOrderUnderContention)
{
    const SweepRunner runner(8);
    const std::vector<std::uint64_t> out =
        runner.map(500, [](std::size_t i) {
            return static_cast<std::uint64_t>(i) * 31 + 7;
        });
    ASSERT_EQ(out.size(), 500u);
    for (std::size_t i = 0; i < out.size(); ++i)
        ASSERT_EQ(out[i], static_cast<std::uint64_t>(i) * 31 + 7);
}

TEST(Sweep, MapRethrowsWorkerExceptionOnCaller)
{
    const SweepRunner runner(4);
    EXPECT_THROW(runner.map(64,
                            [](std::size_t i) -> int {
                                if (i == 37)
                                    throw std::runtime_error("boom");
                                return static_cast<int>(i);
                            }),
                 std::runtime_error);
}

TEST(Sweep, EstimateMatchesHandComputedStatistics)
{
    // {1,2,3,4}: mean 2.5, sample stddev sqrt(5/3), t(3)=3.182.
    const Estimate e = estimateOf({1, 2, 3, 4});
    EXPECT_EQ(e.n, 4u);
    EXPECT_NEAR(e.mean, 2.5, 1e-12);
    EXPECT_NEAR(e.stddev, std::sqrt(5.0 / 3.0), 1e-12);
    EXPECT_NEAR(e.ci95, 3.182 * std::sqrt(5.0 / 3.0) / 2.0, 1e-9);

    const Estimate one = estimateOf({42.0});
    EXPECT_EQ(one.n, 1u);
    EXPECT_EQ(one.mean, 42.0);
    EXPECT_EQ(one.stddev, 0.0);
    EXPECT_EQ(one.ci95, 0.0);

    const Estimate none = estimateOf({});
    EXPECT_EQ(none.n, 0u);
    EXPECT_EQ(none.mean, 0.0);
}

TEST(Sweep, JsonOutputIsDeterministicAndTagged)
{
    const std::vector<Workload> workloads = {workloadSuite()[0]};
    const std::vector<ImplKind> kinds = {ImplKind::ConvSC};
    const RunConfig cfg = smallConfig();
    const SweepRunner runner(2);
    const std::vector<SweepStats> stats =
        runner.runStats(workloads, kinds, cfg, 2);

    std::ostringstream a, b;
    writeSweepJson(a, stats, cfg, 2);
    writeSweepJson(b, stats, cfg, 2);
    EXPECT_EQ(a.str(), b.str());
    EXPECT_NE(a.str().find("\"schema\": \"invisifence-sweep-v1\""),
              std::string::npos);
    EXPECT_NE(a.str().find("\"seeds\": 2"), std::string::npos);
    EXPECT_NE(a.str().find("\"workload\": \"" + workloads[0].name + "\""),
              std::string::npos);
}

TEST(Sweep, JsonSchemaV2AddsMemoryCountersV1Unchanged)
{
    // Hand-built stats with known counter values: schema 1 (the
    // committed-golden revision) must not mention the v2 fields at
    // all; schema 2 must carry them verbatim; schema 3 adds the four
    // fault counters, which neither earlier revision mentions.
    SweepStats s;
    s.workload = "W";
    s.impl = "sc";
    RunResult r;
    r.seed = 7;
    r.retired = 100;
    r.coreCycles = 400;
    r.mshrFullStalls = 13;
    r.dirStaleWritebacks = 5;
    r.dirQueuedRequests = 29;
    r.retries = 17;
    r.dropsInjected = 3;
    r.dupsSquashed = 2;
    r.timeoutBackoffMax = 1600;
    s.runs.push_back(r);

    const RunConfig cfg = smallConfig();
    std::ostringstream v1, v2, v3;
    writeSweepJson(v1, {s}, cfg, 1, 1);
    writeSweepJson(v2, {s}, cfg, 1, 2);
    writeSweepJson(v3, {s}, cfg, 1, 3);

    const char* v2_keys[] = {"mshr_full_stalls", "dir_stale_writebacks",
                             "dir_queued_requests"};
    const char* v3_keys[] = {"retries", "drops_injected", "dups_squashed",
                             "timeout_backoff_max"};
    EXPECT_NE(v1.str().find("\"schema\": \"invisifence-sweep-v1\""),
              std::string::npos);
    for (const char* key : v2_keys)
        EXPECT_EQ(v1.str().find(key), std::string::npos) << key;

    EXPECT_NE(v2.str().find("\"schema\": \"invisifence-sweep-v2\""),
              std::string::npos);
    EXPECT_NE(v2.str().find("\"mshr_full_stalls\": 13"),
              std::string::npos);
    EXPECT_NE(v2.str().find("\"dir_stale_writebacks\": 5"),
              std::string::npos);
    EXPECT_NE(v2.str().find("\"dir_queued_requests\": 29"),
              std::string::npos);
    for (const char* key : v3_keys) {
        EXPECT_EQ(v1.str().find(key), std::string::npos) << key;
        EXPECT_EQ(v2.str().find(key), std::string::npos) << key;
    }

    EXPECT_NE(v3.str().find("\"schema\": \"invisifence-sweep-v3\""),
              std::string::npos);
    EXPECT_NE(v3.str().find("\"dir_queued_requests\": 29, "
                            "\"retries\": 17, \"drops_injected\": 3, "
                            "\"dups_squashed\": 2, "
                            "\"timeout_backoff_max\": 1600, "
                            "\"breakdown\": {"),
              std::string::npos);
}

} // namespace
} // namespace invisifence
