/**
 * @file
 * Fault-injection and liveness suite.
 *
 * The coherence fabric must mask every fault the FaultPlan can inject:
 * dropped requests recover through timeout/retry, duplicated requests
 * are squashed by the directory's (src, txnId) dedup record, and extra
 * delay jitters timing without reordering ordered pairs. Under every
 * implementation kind the architecturally observable outcome (journals,
 * final values, litmus matrices) must be identical to a clean run —
 * only the timing and the fault counters may differ. Fault decisions
 * come from a dedicated seeded Rng, so a fixed {workload, kind, config,
 * fault seed} is bit-identical across reruns and across fast-forward
 * on/off. When recovery is impossible (a planted drop with retries
 * disabled), the liveness watchdog must dump the in-flight transactions
 * and fail fast instead of spinning to the cycle budget.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "test_util.hh"
#include "workload/workloads.hh"

namespace invisifence {
namespace {

using test::allImplKinds;
using test::expectIdenticalResults;
using test::lastLoadOf;
using test::makeScripted;
using test::modelOf;
using test::taddr;

constexpr std::uint32_t kTokenCores = 4;

/** Token word: cores take turns bumping it t -> t+1. */
Addr
tokenAddr()
{
    return taddr(40);
}

/**
 * Deterministic-outcome workload with real cross-core traffic: each
 * core writes two private words, waits for the shared token to reach
 * its id, passes the token on, and reads its private words back. The
 * committed journal values are invariant under any timing perturbation
 * the injector can produce, so every fault plan must reproduce them.
 */
std::vector<std::vector<ScriptOp>>
tokenScripts()
{
    std::vector<std::vector<ScriptOp>> scripts;
    for (std::uint32_t t = 0; t < kTokenCores; ++t) {
        std::vector<ScriptOp> s;
        s.push_back(opStore(taddr(50 + t), 0xA0 + t));
        s.push_back(opStore(taddr(60 + t), 0xB0 + t));
        s.push_back(opSpinUntilEq(tokenAddr(), t));
        s.push_back(opStore(tokenAddr(), t + 1));
        s.push_back(opLoad(taddr(50 + t)));
        s.push_back(opLoad(taddr(60 + t)));
        scripts.push_back(std::move(s));
    }
    return scripts;
}

/** Small system with @p plan active and recovery armed. The watchdog
 *  rides along far above the retry backoff cap, proving that recovery
 *  traffic never looks like a hang. */
SystemParams
faultParams(const FaultPlan& plan, Cycle retry_timeout = 800)
{
    SystemParams p = SystemParams::small(kTokenCores);
    p.fault = plan;
    p.agent.retryTimeout = retry_timeout;
    p.agent.retryBackoffCap = 8000;
    p.watchdog = 100000;
    return p;
}

void
expectTokenOutcome(System& sys)
{
    for (std::uint32_t t = 0; t < kTokenCores; ++t) {
        EXPECT_EQ(lastLoadOf(sys, t, tokenAddr()), t)
            << "core " << t << " token spin exit";
        EXPECT_EQ(lastLoadOf(sys, t, taddr(50 + t)), 0xA0 + t)
            << "core " << t << " private word A";
        EXPECT_EQ(lastLoadOf(sys, t, taddr(60 + t)), 0xB0 + t)
            << "core " << t << " private word B";
    }
}

} // namespace

// ---------------------------------------------------------------------
// Fault matrix: every kind x every fault class -> identical outcome
// ---------------------------------------------------------------------

TEST(FaultMatrix, IdenticalFinalStateAcrossAllKindsAndFaultClasses)
{
    struct PlanRow
    {
        const char* name;
        FaultPlan plan;
    };
    std::vector<PlanRow> rows;
    rows.push_back({"none", FaultPlan{}});
    {
        FaultPlan drop;
        drop.seed = 11;
        drop.dropPer64k = 4000;
        rows.push_back({"drop", drop});
    }
    {
        FaultPlan delay;
        delay.seed = 12;
        delay.delayPer64k = 20000;
        delay.maxExtraDelay = 300;
        rows.push_back({"delay", delay});
    }
    {
        FaultPlan dup;
        dup.seed = 13;
        dup.dupPer64k = 8000;
        rows.push_back({"dup", dup});
    }
    for (const ImplKind kind : allImplKinds()) {
        for (const PlanRow& row : rows) {
            SCOPED_TRACE(std::string(implKindName(kind)) + " / " +
                         row.name);
            auto sys = makeScripted(tokenScripts(), kind,
                                    faultParams(row.plan));
            ASSERT_TRUE(sys->runUntilDone(3'000'000));
            expectTokenOutcome(*sys);
        }
    }
}

// ---------------------------------------------------------------------
// Scheduled one-shot faults: guaranteed injection, guaranteed recovery
// ---------------------------------------------------------------------

TEST(FaultInjection, OneShotDropIsRecoveredByRetry)
{
    FaultPlan plan;
    plan.oneShots.push_back({1, FaultPlan::Kind::Drop, 0});
    auto sys =
        makeScripted(tokenScripts(), ImplKind::ConvSC, faultParams(plan));
    ASSERT_TRUE(sys->runUntilDone(3'000'000));
    EXPECT_EQ(sys->stats().aggregate("system.fault.drops"), 1u);
    EXPECT_GE(sys->stats().aggregate("core*.agent.retries"), 1u);
    EXPECT_GE(sys->stats().aggregate("core*.agent.retry_backoff_max"), 1u);
    expectTokenOutcome(*sys);
}

TEST(FaultInjection, OneShotDuplicateIsSquashedByDirectory)
{
    // The first message any agent sends is a request; its injected twin
    // reaches the home after the original's transaction completed, hits
    // the (src, txnId) dedup record, and is squashed without a second
    // grant — visible as exactly one dups_squashed count.
    FaultPlan plan;
    plan.oneShots.push_back({1, FaultPlan::Kind::Duplicate, 0});
    auto sys = makeScripted(tokenScripts(), ImplKind::InvisiTSO,
                            faultParams(plan));
    ASSERT_TRUE(sys->runUntilDone(3'000'000));
    EXPECT_EQ(sys->stats().aggregate("core*.dir.dups_squashed"), 1u);
    expectTokenOutcome(*sys);
}

TEST(FaultInjection, OneShotDelayPerturbsOnlyTiming)
{
    FaultPlan plan;
    plan.oneShots.push_back({2, FaultPlan::Kind::Delay, 5000});
    auto sys = makeScripted(tokenScripts(), ImplKind::Continuous,
                            faultParams(plan));
    ASSERT_TRUE(sys->runUntilDone(3'000'000));
    EXPECT_EQ(sys->stats().aggregate("system.fault.drops"), 0u);
    expectTokenOutcome(*sys);
}

// ---------------------------------------------------------------------
// Determinism: same fault seed -> same faults -> same run
// ---------------------------------------------------------------------

TEST(FaultDeterminism, SameSeedReproducesTheExactFaultSequence)
{
    FaultPlan plan;
    plan.seed = 1234;
    plan.dropPer64k = 8000;
    plan.delayPer64k = 16000;
    plan.dupPer64k = 8000;
    const auto run = [&] {
        auto sys = makeScripted(tokenScripts(), ImplKind::InvisiSC,
                                faultParams(plan));
        EXPECT_TRUE(sys->runUntilDone(3'000'000));
        return sys;
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a->now(), b->now());
    EXPECT_EQ(a->totalRetired(), b->totalRetired());
    // Every registered stat, fault counters included, matches.
    EXPECT_EQ(a->stats().snapshot(), b->stats().snapshot());
    // The plan actually did something, or the test proves nothing.
    EXPECT_GT(a->stats().aggregate("system.fault.drops") +
                  a->stats().aggregate("core*.dir.dups_squashed"),
              0u);
}

namespace {

RunConfig
faultCfg(std::uint64_t seed, int fast_forward)
{
    RunConfig cfg;
    cfg.warmupCycles = 400;
    cfg.measureCycles = 2500;
    cfg.seed = seed;
    cfg.system = SystemParams::small(4);
    cfg.system.fastForward = fast_forward;
    cfg.system.fault.seed = 99;
    cfg.system.fault.dropPer64k = 1500;
    cfg.system.fault.delayPer64k = 4000;
    cfg.system.fault.dupPer64k = 1500;
    cfg.system.agent.retryTimeout = 800;
    cfg.system.agent.retryBackoffCap = 8000;
    return cfg;
}

} // namespace

TEST(FaultDeterminism, BitIdenticalAcrossFastForwardAndReruns)
{
    // The fast-forward equivalence contract extends to fault runs: the
    // injector draws per observed message, the message sequence is
    // bit-identical across scheduler modes, so every RunResult field —
    // including the new fault counters — must match, and a rerun of the
    // identical config must reproduce it exactly.
    const Workload& wl = workloadSuite().front();
    for (const ImplKind kind : allImplKinds()) {
        SCOPED_TRACE(implKindName(kind));
        const RunResult off = runExperiment(wl, kind, faultCfg(5, 0));
        const RunResult on = runExperiment(wl, kind, faultCfg(5, 1));
        const RunResult again = runExperiment(wl, kind, faultCfg(5, 1));
        expectIdenticalResults(off, on);
        expectIdenticalResults(on, again);
    }
}

// ---------------------------------------------------------------------
// Litmus matrix under drops: ordering survives loss and retry
// ---------------------------------------------------------------------

namespace {

/** runLitmus (see litmus_test.cc) with a drop+dup plan and retries. */
std::unique_ptr<System>
runLitmusFaulty(const LitmusTest& test, ImplKind kind,
                std::uint32_t jitter)
{
    std::vector<std::vector<ScriptOp>> scripts;
    std::uint32_t t = 0;
    for (const auto& thread : test.threads) {
        std::vector<ScriptOp> s;
        for (const auto& th : test.threads)
            for (const auto& op : th)
                if (isMemOp(op.inst.type))
                    s.push_back(opLoad(op.inst.addr));
        s.push_back(opAlu(200));
        const std::uint32_t delay = (jitter * (t + 3) * 7) % 40;
        for (std::uint32_t d = 0; d < delay; ++d)
            s.push_back(opAlu(1));
        for (const auto& op : thread)
            s.push_back(op);
        scripts.push_back(std::move(s));
        ++t;
    }
    SystemParams params =
        SystemParams::small(static_cast<std::uint32_t>(scripts.size()));
    params.fault.seed = 17 + jitter;
    params.fault.dropPer64k = 3000;
    params.fault.dupPer64k = 1500;
    params.agent.retryTimeout = 600;
    params.agent.retryBackoffCap = 6000;
    params.watchdog = 100000;
    auto sys = makeScripted(std::move(scripts), kind, params);
    EXPECT_TRUE(sys->runUntilDone(2'000'000));
    return sys;
}

std::vector<std::uint64_t>
observeProbes(System& sys, const LitmusTest& test)
{
    std::vector<std::uint64_t> out;
    for (const auto& p : test.probes)
        out.push_back(lastLoadOf(sys, p.thread, p.addr));
    return out;
}

struct FaultMatrixRow
{
    const char* name;
    LitmusTest (*make)();
    bool (*relaxed)(const std::vector<std::uint64_t>&);
    std::optional<Model> weakestAllowing;
};

const std::vector<FaultMatrixRow>&
faultLitmusMatrix()
{
    // Same rows and predicates as litmus_test.cc's matrix: SB relaxes
    // from TSO down, MP from RMO down, LB/IRIW are forbidden
    // everywhere (no value speculation; fenced IRIW readers).
    static const std::vector<FaultMatrixRow> rows = {
        {"SB", litmusSb,
         [](const std::vector<std::uint64_t>& r) {
             return r[0] == 0 && r[1] == 0;
         },
         Model::TSO},
        {"MP", litmusMp,
         [](const std::vector<std::uint64_t>& r) {
             return r[0] == 1 && r[1] == 0;
         },
         Model::RMO},
        {"LB", litmusLb,
         [](const std::vector<std::uint64_t>& r) {
             return r[0] == 1 && r[1] == 1;
         },
         std::nullopt},
        {"IRIW", litmusIriw,
         [](const std::vector<std::uint64_t>& r) {
             return r[0] == 1 && r[1] == 0 && r[2] == 1 && r[3] == 0;
         },
         std::nullopt},
    };
    return rows;
}

} // namespace

TEST(FaultLitmus, ForbiddenOutcomesStayForbiddenUnderDropsAndRetries)
{
    // Retried requests and squashed duplicates must not weaken the
    // memory model: a retry that re-granted a line twice, or a
    // duplicate that slipped past dedup, would surface here as a
    // forbidden litmus outcome.
    constexpr std::uint32_t kIterations = 6;
    for (const ImplKind kind : allImplKinds()) {
        const Model model = modelOf(kind);
        for (const FaultMatrixRow& row : faultLitmusMatrix()) {
            if (row.weakestAllowing &&
                static_cast<int>(model) >=
                    static_cast<int>(*row.weakestAllowing)) {
                continue;   // relaxed outcome legal for this kind
            }
            SCOPED_TRACE(std::string(implKindName(kind)) + " / " +
                         row.name);
            const LitmusTest t = row.make();
            for (std::uint32_t i = 0; i < kIterations; ++i) {
                auto sys = runLitmusFaulty(t, kind, i);
                EXPECT_FALSE(row.relaxed(observeProbes(*sys, t)))
                    << row.name << " forbidden outcome under "
                    << implKindName(kind) << " with faults, iteration "
                    << i;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Liveness watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, PlantedDeadlockFailsFastWithDiagnostic)
{
    // Drop the very first request with retries DISABLED: the protocol
    // has no recovery path (exactly the unrecoverable-loss class the
    // injector refuses to create via rates), the queue drains, and the
    // system wedges. The watchdog must fire its structured dump and
    // exit instead of burning the 5M-cycle budget.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FaultPlan plan;
    plan.oneShots.push_back({1, FaultPlan::Kind::Drop, 0});
    SystemParams params = SystemParams::small(2);
    params.fault = plan;   // retryTimeout stays 0: no recovery
    params.watchdog = 20000;
    const std::vector<std::vector<ScriptOp>> scripts{
        {opStore(taddr(70), 1), opLoad(taddr(70))},
        {opStore(taddr(71), 2)}};
    EXPECT_DEATH(
        {
            auto sys = makeScripted(scripts, ImplKind::ConvSC, params);
            sys->runUntilDone(5'000'000);
        },
        "LIVENESS WATCHDOG");
}

TEST(Watchdog, DoesNotFireOnCompletionOrPostCompletionIdle)
{
    SystemParams params = SystemParams::small(2);
    params.watchdog = 5000;
    const std::vector<std::vector<ScriptOp>> scripts{
        {opStore(taddr(72), 7), opLoad(taddr(72))}, {opLoad(taddr(73))}};
    auto sys = makeScripted(scripts, ImplKind::InvisiSC, params);
    ASSERT_TRUE(sys->runUntilDone(1'000'000));
    // Idle far past the threshold: a finished system is quiet, not
    // stuck, and must not trip the watchdog.
    sys->run(30000);
    EXPECT_EQ(lastLoadOf(*sys, 0, taddr(72)), 7u);
}

} // namespace invisifence
