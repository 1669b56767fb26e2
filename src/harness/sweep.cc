#include "harness/sweep.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "sim/log.hh"

// Global-state audit (why one simulator per worker thread is safe):
// every System owns its event queue, functional memory, network, cores,
// agents, directories and stat registry by value or unique_ptr; the only
// function-scope statics in src/ are immutable-after-init tables
// (workloadSuite(), parameter presets, benchEnv()) whose initialization
// C++11 magic statics serialize. Logging goes through single fprintf
// calls (atomic at the libc level), and the progress line below is one
// fprintf for the same reason. Nothing else is shared, so grid points
// are pure functions of (workload, kind, cfg) — which sweep_test pins
// down by diffing parallel against serial output bit-for-bit.

namespace invisifence {

std::vector<SweepPoint>
sweepGrid(const std::vector<Workload>& workloads,
          const std::vector<ImplKind>& kinds, const RunConfig& base,
          std::uint32_t numSeeds)
{
    if (numSeeds == 0)
        IF_FATAL("sweepGrid: numSeeds must be at least 1");
    std::vector<SweepPoint> grid;
    grid.reserve(workloads.size() * kinds.size() * numSeeds);
    for (const Workload& wl : workloads) {
        for (const ImplKind kind : kinds) {
            for (std::uint32_t s = 0; s < numSeeds; ++s) {
                SweepPoint p;
                p.workload = wl;
                p.kind = kind;
                p.cfg = base;
                p.cfg.seed = base.seed + s;
                grid.push_back(std::move(p));
            }
        }
    }
    return grid;
}

namespace {

/** Two-tailed 95% Student-t quantile for @p df degrees of freedom. */
double
tQuantile95(std::uint32_t df)
{
    static constexpr double kTable[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042};
    constexpr std::uint32_t kRows = sizeof(kTable) / sizeof(kTable[0]);
    if (df == 0)
        return 0;
    return df <= kRows ? kTable[df - 1] : 1.960;
}

} // namespace

Estimate
estimateOf(const std::vector<double>& samples)
{
    Estimate e;
    e.n = static_cast<std::uint32_t>(samples.size());
    if (e.n == 0)
        return e;
    double sum = 0;
    for (const double x : samples)
        sum += x;
    e.mean = sum / e.n;
    if (e.n < 2)
        return e;
    double sq = 0;
    for (const double x : samples)
        sq += (x - e.mean) * (x - e.mean);
    e.stddev = std::sqrt(sq / (e.n - 1));
    e.ci95 = tQuantile95(e.n - 1) * e.stddev / std::sqrt(e.n);
    return e;
}

Estimate
SweepStats::throughput() const
{
    std::vector<double> xs;
    xs.reserve(runs.size());
    for (const RunResult& r : runs)
        xs.push_back(r.throughput());
    return estimateOf(xs);
}

Estimate
SweepStats::specFraction() const
{
    std::vector<double> xs;
    xs.reserve(runs.size());
    for (const RunResult& r : runs)
        xs.push_back(r.specFraction());
    return estimateOf(xs);
}

SweepRunner::SweepRunner(std::uint32_t jobs)
    : jobs_(jobs > 0 ? jobs : defaultJobs())
{
}

std::uint32_t
SweepRunner::defaultJobs()
{
    if (benchEnv().jobs > 0)
        return benchEnv().jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::vector<RunResult>
SweepRunner::run(const std::vector<SweepPoint>& grid, bool progress) const
{
    std::atomic<std::size_t> done{0};
    return map(grid.size(), [&](std::size_t i) {
        const SweepPoint& p = grid[i];
        RunResult r = runExperiment(p.workload, p.kind, p.cfg);
        if (progress) {
            const std::size_t k =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            std::fprintf(stderr, "  [%zu/%zu] %s/%s seed=%" PRIu64 "\n",
                         k, grid.size(), r.workload.c_str(),
                         r.impl.c_str(), r.seed);
        }
        return r;
    });
}

std::vector<SweepStats>
SweepRunner::runStats(const std::vector<Workload>& workloads,
                      const std::vector<ImplKind>& kinds,
                      const RunConfig& base, std::uint32_t numSeeds,
                      bool progress) const
{
    const std::vector<SweepPoint> grid =
        sweepGrid(workloads, kinds, base, numSeeds);
    std::vector<RunResult> results = run(grid, progress);
    std::vector<SweepStats> stats;
    stats.reserve(workloads.size() * kinds.size());
    std::size_t i = 0;
    for (const Workload& wl : workloads) {
        for (const ImplKind kind : kinds) {
            SweepStats s;
            s.workload = wl.name;
            s.impl = implKindName(kind);
            for (std::uint32_t n = 0; n < numSeeds; ++n)
                s.runs.push_back(std::move(results[i++]));
            stats.push_back(std::move(s));
        }
    }
    return stats;
}

namespace {

/** Shortest %g form that round-trips a double (deterministic). */
std::string
jsonNum(double v)
{
    return strformat("%.17g", v);
}

void
writeEstimate(std::ostream& os, const Estimate& e)
{
    os << "{\"mean\": " << jsonNum(e.mean)
       << ", \"stddev\": " << jsonNum(e.stddev)
       << ", \"ci95\": " << jsonNum(e.ci95) << ", \"n\": " << e.n << "}";
}

void
writeRun(std::ostream& os, const RunResult& r, std::uint32_t schema)
{
    os << "{\"seed\": " << r.seed;
    for (const RunField& f : runFields()) {
        if (f.field && schema >= f.since)
            os << ", \"" << f.key << "\": " << f.of(r);
    }
    const char* sep = ", \"breakdown\": {";
    for (const RunField& f : runFields()) {
        if (f.category && schema >= f.since) {
            os << sep << "\"" << f.key << "\": " << f.of(r);
            sep = ", ";
        }
    }
    os << "}}";
}

} // namespace

void
writeSweepJson(std::ostream& os, const std::vector<SweepStats>& stats,
               const RunConfig& base, std::uint32_t numSeeds,
               std::uint32_t schema)
{
    os << "{\n"
       << "  \"schema\": \"invisifence-sweep-v"
       << schema << "\",\n"
       << "  \"config\": {\"warmup_cycles\": " << base.warmupCycles
       << ", \"measure_cycles\": " << base.measureCycles
       << ", \"base_seed\": " << base.seed
       << ", \"seeds\": " << numSeeds
       << ", \"num_cores\": " << base.system.numCores;
    if (schema >= 2) {
        // Machine topology (v2 only: the v1 goldens are byte-frozen).
        const TorusDims dims =
            torusDims(base.system.net, base.system.numCores);
        os << ", \"dim_x\": " << dims.x << ", \"dim_y\": " << dims.y
           << ", \"dir_hash\": "
           << (base.system.dirHashHome ? "true" : "false");
    }
    os << ", \"warm_start\": " << (base.warmStart ? "true" : "false")
       << "},\n"
       << "  \"points\": [\n";
    for (std::size_t i = 0; i < stats.size(); ++i) {
        const SweepStats& s = stats[i];
        os << "    {\"workload\": \"" << s.workload << "\", \"impl\": \""
           << s.impl << "\",\n"
           << "     \"throughput\": ";
        writeEstimate(os, s.throughput());
        os << ",\n     \"spec_fraction\": ";
        writeEstimate(os, s.specFraction());
        os << ",\n     \"runs\": [";
        for (std::size_t r = 0; r < s.runs.size(); ++r) {
            if (r > 0)
                os << ",\n              ";
            writeRun(os, s.runs[r], schema);
        }
        os << "]}" << (i + 1 < stats.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

} // namespace invisifence
