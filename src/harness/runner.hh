/**
 * @file
 * Experiment runner: one (workload, implementation) measurement, plus
 * the derived metrics the paper's figures report.
 *
 * Runs are fixed-length with a warmup prefix excluded from measurement.
 * Throughput (retired instructions per core-cycle) stands in for the
 * inverse of runtime: all configurations execute statistically identical
 * work, so speedup(X over Y) = throughput_X / throughput_Y, and a
 * configuration's "runtime normalized to SC" (Figure 9/11/12) is
 * throughput_SC / throughput_X with the cycle-category shares scaled by
 * the same factor.
 */

#ifndef INVISIFENCE_HARNESS_RUNNER_HH
#define INVISIFENCE_HARNESS_RUNNER_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "cpu/accounting.hh"
#include "harness/system.hh"
#include "workload/workloads.hh"

namespace invisifence {

/**
 * Process-wide benchmark environment. Parsed exactly once per process
 * (thread-safe magic static, so sweep workers never touch getenv) and
 * validated strictly: a malformed or out-of-range value is a fatal
 * configuration error, not a silent fallback.
 */
struct BenchEnv
{
    Cycle measureCycles = 0;   //!< INVISIFENCE_BENCH_CYCLES (0 = unset)
    std::uint64_t seed = 0;    //!< INVISIFENCE_BENCH_SEED (0 = unset)
    std::uint32_t seeds = 1;   //!< INVISIFENCE_BENCH_SEEDS per point
    std::uint32_t jobs = 0;    //!< INVISIFENCE_JOBS (0 = hw concurrency)
    std::uint32_t fuzzPrograms = 200;   //!< INVISIFENCE_FUZZ_PROGRAMS
    std::string jsonPath;      //!< INVISIFENCE_BENCH_JSON (empty = off)
    /** INVISIFENCE_WARM_SHARERS in [0,1]: prime shared/lock blocks at
     *  only that fraction of the nodes instead of Shared-everywhere
     *  (0 = off, the default — preserves the committed goldens; 1 is
     *  equivalent to off, i.e. every node shares). */
    double warmSharers = 0.0;
    /** @{ Machine-scale knobs (0/-1 = unset, keep the config default):
     *  INVISIFENCE_NUM_CORES, INVISIFENCE_DIM_X / _DIM_Y (0 also means
     *  "derive from the core count", see torusDims),
     *  INVISIFENCE_HOP_LATENCY in cycles, and INVISIFENCE_DIR_HASH for
     *  block-hash home placement. */
    std::uint32_t numCores = 0;
    std::uint32_t dimX = 0;
    std::uint32_t dimY = 0;
    Cycle hopLatency = 0;
    int dirHash = -1;
    /** @} */
    /** @{ Fault-injection and liveness knobs (0 = unset/off):
     *  INVISIFENCE_MAX_CYCLES is an absolute hard cycle budget for
     *  System::runUntilDone — exhausting it is fatal, a CI backstop
     *  against silent hangs; INVISIFENCE_FAULT_SEED seeds the fault
     *  Rng; INVISIFENCE_FAULT_DROP / _DELAY / _DUP are per-65536
     *  message rates (requests only for drop/dup, see sim/fault.hh);
     *  INVISIFENCE_WATCHDOG is the liveness watchdog's no-progress
     *  threshold in cycles. */
    Cycle maxCycles = 0;
    std::uint64_t faultSeed = 0;
    std::uint32_t faultDrop = 0;
    std::uint32_t faultDelay = 0;
    std::uint32_t faultDup = 0;
    Cycle watchdog = 0;
    /** @} */
};

/** The parsed environment (first call parses; later calls are free). */
const BenchEnv& benchEnv();

/** Measurement knobs. */
struct RunConfig
{
    Cycle warmupCycles = 12000;
    Cycle measureCycles = 50000;
    std::uint64_t seed = 1;
    bool warmStart = true;   //!< prime caches/directory (warm sampling)
    SystemParams system = SystemParams::bench();

    /** Defaults with the benchEnv() cycle/seed overrides applied. */
    static RunConfig fromEnv();
};

/**
 * Prime caches and directory with the workload's steady-state working
 * set: private regions Exclusive at their owner, the shared region and
 * lock words Shared at every node, lock-data chunks at a round-robin
 * owner. Stands in for the warm checkpoints of the SimFlex methodology.
 *
 * @p sharer_fraction selects the sharer-precise variant: with a value
 * in (0, 1], each shared/lock block is primed Shared at only
 * ceil(fraction * nodes) nodes — a deterministic, block-dependent
 * subset approximating the sparse sharer sets a real warm checkpoint
 * would record — which cuts the per-store Inv/InvAck storm that
 * Shared-everywhere priming provokes. 0 (default) keeps the legacy
 * everywhere-shared behavior and the committed goldens byte-identical.
 * Opt in globally via INVISIFENCE_WARM_SHARERS (see BenchEnv).
 */
void warmSystem(System& sys, const SyntheticParams& params,
                double sharer_fraction = 0.0);

/**
 * Sharer set for @p block under sharer-precise warming: the
 * deterministic subset of @p num_nodes nodes (never empty, at most all)
 * that warmSystem primes when @p sharer_fraction is in (0, 1]. Works at
 * any node count up to SharerSet::kMaxNodes — the old uint32_t mask
 * silently capped warm sharers at 32 nodes.
 */
SharerSet warmSharerMask(Addr block, std::uint32_t num_nodes,
                         double sharer_fraction);

/**
 * Result of one measured run. Every counter is listed in runFields(),
 * which is how runExperiment() fills it, how the sweep JSON emits it,
 * and how tests compare two results.
 */
struct RunResult
{
    std::string workload;
    std::string impl;
    std::uint64_t seed = 0;            //!< RunConfig::seed of this run
    std::uint64_t retired = 0;         //!< instructions in the window
    std::uint64_t coreCycles = 0;      //!< cores * measured cycles
    Breakdown breakdown{};             //!< measured-window breakdown
    std::uint64_t speculatingCycles = 0;
    std::uint64_t aborts = 0;
    std::uint64_t commits = 0;
    /** @{ Measured-window memory/directory accounting (JSON schema v2):
     *  MSHR-full stall episodes, writebacks that raced an invalidation
     *  or forward (arrived stale at the home), and requests that queued
     *  behind a busy block. */
    std::uint64_t mshrFullStalls = 0;
    std::uint64_t dirStaleWritebacks = 0;
    std::uint64_t dirQueuedRequests = 0;
    /** @} */
    /** @{ Fault-tolerance accounting (JSON schema v3; all zero in
     *  clean runs): request retransmissions taken, request drops the
     *  fault plan injected, duplicate requests the directory's dedup
     *  record squashed, and the largest retry-backoff interval any
     *  agent reached — a high-water mark read at window end, not a
     *  delta. */
    std::uint64_t retries = 0;
    std::uint64_t dropsInjected = 0;
    std::uint64_t dupsSquashed = 0;
    std::uint64_t timeoutBackoffMax = 0;
    /** @} */

    double throughput() const
    {
        return coreCycles == 0
                   ? 0.0
                   : static_cast<double>(retired) /
                         static_cast<double>(coreCycles);
    }

    /** Fraction of core cycles in speculation (Figure 10). */
    double specFraction() const
    {
        return coreCycles == 0
                   ? 0.0
                   : static_cast<double>(speculatingCycles) /
                         static_cast<double>(coreCycles);
    }
};

/**
 * One RunResult counter: its JSON key, where it lives in RunResult
 * (a top-level @c field, or a @c category of the nested breakdown),
 * the StatRegistry pattern it is the window value of, and the first
 * sweep-JSON schema revision that emits it. @c stat is null for the
 * one derived counter, retired (committed instructions), which
 * runExperiment() computes from two registry patterns.
 */
struct RunField
{
    const char* key;
    const char* stat;
    std::uint32_t since;
    std::uint64_t RunResult::*field = nullptr;
    std::uint64_t Breakdown::*category = nullptr;

    std::uint64_t& of(RunResult& r) const
    {
        return field ? r.*field : r.breakdown.*category;
    }
    std::uint64_t of(const RunResult& r) const
    {
        return field ? r.*field : r.breakdown.*category;
    }
};

/** Every RunResult counter, in sweep-JSON key order. */
std::span<const RunField> runFields();

/** Run @p workload under @p kind and measure. */
RunResult runExperiment(const Workload& workload, ImplKind kind,
                        const RunConfig& cfg);

/** Category shares of the breakdown, as fractions summing to ~1. */
struct BreakdownShares
{
    double busy = 0, other = 0, sbFull = 0, sbDrain = 0, violation = 0;
};
BreakdownShares shares(const RunResult& r);

/** Shares scaled to a runtime normalized against @p baseline. */
BreakdownShares normalizedShares(const RunResult& r,
                                 const RunResult& baseline);

} // namespace invisifence

#endif // INVISIFENCE_HARNESS_RUNNER_HH
