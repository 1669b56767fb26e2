/**
 * @file
 * SweepRunner: parallel sharded execution of experiment grids.
 *
 * A sweep is a declarative list of (workload, implementation, config)
 * points. The runner shards the points across a std::thread pool (one
 * fully isolated simulator instance per point — the simulator has no
 * global mutable state, see the audit note in sweep.cc) and reassembles
 * the results in grid order, so parallel output is bit-identical to a
 * serial run of the same grid. On top of the raw runner sit multi-seed
 * statistics (mean/stddev/95% CI per point) and a machine-readable JSON
 * emitter, which together turn every figure bench into a statistical,
 * embarrassingly-parallel reproduction in the SimFlex sampling spirit.
 *
 * Knobs: INVISIFENCE_JOBS caps the worker count (default:
 * hardware_concurrency); INVISIFENCE_BENCH_SEEDS widens each point to
 * that many seeds (default 1).
 */

#ifndef INVISIFENCE_HARNESS_SWEEP_HH
#define INVISIFENCE_HARNESS_SWEEP_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "harness/runner.hh"
#include "workload/workloads.hh"

namespace invisifence {

/** One point of a sweep grid: run @c workload under @c kind with @c cfg. */
struct SweepPoint
{
    Workload workload;
    ImplKind kind = ImplKind::ConvSC;
    RunConfig cfg;
};

/**
 * Dense grid in deterministic order: workload-major, then implementation,
 * then seed (cfg.seed = base.seed + s for s in [0, numSeeds)).
 */
std::vector<SweepPoint> sweepGrid(const std::vector<Workload>& workloads,
                                  const std::vector<ImplKind>& kinds,
                                  const RunConfig& base,
                                  std::uint32_t numSeeds = 1);

/** Sample statistics of one scalar metric across seeds. */
struct Estimate
{
    double mean = 0;
    double stddev = 0;   //!< sample standard deviation (n-1 divisor)
    double ci95 = 0;     //!< Student-t 95% confidence half-width
    std::uint32_t n = 0;
};

/** Mean/stddev/95% CI of @p samples (t-distribution for small n). */
Estimate estimateOf(const std::vector<double>& samples);

/** Multi-seed results and statistics for one (workload, impl) point. */
struct SweepStats
{
    std::string workload;
    std::string impl;
    std::vector<RunResult> runs;   //!< seed order, at least one entry

    /** The first-seed run; equals the single RunResult when seeds == 1. */
    const RunResult& primary() const { return runs.front(); }

    Estimate throughput() const;
    Estimate specFraction() const;
};

/**
 * Shards independent experiment points across a worker pool and returns
 * results in submission order. Construction with jobs == 0 resolves the
 * worker count from INVISIFENCE_JOBS, falling back to
 * hardware_concurrency.
 */
class SweepRunner
{
  public:
    explicit SweepRunner(std::uint32_t jobs = 0);

    std::uint32_t jobs() const { return jobs_; }

    /** INVISIFENCE_JOBS override, else hardware_concurrency, else 1. */
    static std::uint32_t defaultJobs();

    /**
     * Generic deterministic fan-out: computes fn(i) for i in [0, n) on
     * the pool and returns the results indexed by i. Results are
     * independent of scheduling; the first exception thrown by any task
     * is rethrown on the calling thread after the pool drains.
     */
    template <typename Fn>
    auto map(std::size_t n, Fn&& fn) const
        -> std::vector<decltype(fn(std::size_t{0}))>
    {
        using R = decltype(fn(std::size_t{0}));
        static_assert(!std::is_same_v<R, bool>,
                      "map() workers write results[i] concurrently; "
                      "std::vector<bool> packs bits and would race — "
                      "return a wrapper struct instead");
        std::vector<R> results(n);
        const std::size_t workers =
            std::min<std::size_t>(jobs_, n);
        if (workers <= 1) {
            for (std::size_t i = 0; i < n; ++i)
                results[i] = fn(i);
            return results;
        }
        std::atomic<std::size_t> next{0};
        std::atomic<bool> failed{false};
        std::exception_ptr error;
        std::mutex error_mu;
        const auto worker = [&] {
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n || failed.load(std::memory_order_relaxed))
                    return;
                try {
                    results[i] = fn(i);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mu);
                    if (!error)
                        error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                    return;
                }
            }
        };
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back(worker);
        for (auto& t : pool)
            t.join();
        if (error)
            std::rethrow_exception(error);
        return results;
    }

    /**
     * Run every grid point (each in its own simulator instance) and
     * return the RunResults in grid order — bit-identical to calling
     * runExperiment serially over the same grid.
     */
    std::vector<RunResult> run(const std::vector<SweepPoint>& grid,
                               bool progress = false) const;

    /**
     * Full statistical sweep: widen (workloads x kinds) by @p numSeeds
     * seeds, run the grid, and fold the per-seed runs into one
     * SweepStats per point, in workload-major order.
     */
    std::vector<SweepStats>
    runStats(const std::vector<Workload>& workloads,
             const std::vector<ImplKind>& kinds, const RunConfig& base,
             std::uint32_t numSeeds = 1, bool progress = false) const;

  private:
    std::uint32_t jobs_;
};

/**
 * Machine-readable sweep results: one JSON object with the run
 * configuration and, per point, the raw per-seed counters plus
 * throughput/spec-fraction estimates. Output is deterministic for a
 * fixed grid and seed (goldens diff byte-for-byte). @p schema selects
 * the emitted revision, "invisifence-sweep-v<schema>". Each run's
 * counters come from the runFields() table, in table order: a row is
 * emitted when @p schema >= its first revision, top-level rows after
 * "seed", breakdown rows inside the nested "breakdown" object. So
 * revision 1 (the default, the committed fig0809 golden) carries the
 * figure counters; 2 (the committed 64-core golden) adds
 * mshr_full_stalls / dir_stale_writebacks / dir_queued_requests, plus
 * the machine topology (dim_x / dim_y / dir_hash) in the config object;
 * 3 adds the fault-tolerance counters retries / drops_injected /
 * dups_squashed / timeout_backoff_max. (drops_injected was named
 * drops_recovered before; no committed artifact carried it.)
 */
void writeSweepJson(std::ostream& os, const std::vector<SweepStats>& stats,
                    const RunConfig& base, std::uint32_t numSeeds,
                    std::uint32_t schema = 1);

} // namespace invisifence

#endif // INVISIFENCE_HARNESS_SWEEP_HH
