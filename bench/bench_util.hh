/**
 * @file
 * Shared helpers for the figure-reproduction benchmark binaries.
 *
 * Each binary regenerates one table/figure of the paper. Absolute
 * numbers differ from the paper's testbed; the *shape* (who wins, by
 * roughly what factor, where crossovers fall) is the reproduction
 * target. See EXPERIMENTS.md.
 *
 * All benches run their grids through SweepRunner: points execute in
 * parallel across INVISIFENCE_JOBS worker threads, repeated for
 * INVISIFENCE_BENCH_SEEDS seeds per point (tables then carry ±95% CI),
 * and INVISIFENCE_BENCH_JSON=<path> additionally dumps the sweep as
 * machine-readable JSON.
 */

#ifndef INVISIFENCE_BENCH_BENCH_UTIL_HH
#define INVISIFENCE_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "harness/table.hh"
#include "sim/log.hh"
#include "workload/workloads.hh"

namespace invisifence::bench {

/** Multi-seed results of one workload under a set of implementations. */
using ResultRow = std::map<std::string, SweepStats>;

/** Honor INVISIFENCE_BENCH_JSON: dump @p stats to the requested path. */
inline void
maybeWriteJson(const std::vector<SweepStats>& stats, const RunConfig& cfg,
               std::uint32_t seeds)
{
    const std::string& path = benchEnv().jsonPath;
    if (path.empty())
        return;
    std::ofstream os(path);
    if (!os)
        IF_FATAL("INVISIFENCE_BENCH_JSON: cannot write '%s'",
                 path.c_str());
    // Schema 1 keeps the committed goldens byte-identical; a run with
    // fault injection armed emits revision 3 so the fault-tolerance
    // counters (retries / drops_injected / ...) are visible.
    const bool faulty = cfg.system.fault.any() ||
                        cfg.system.agent.retryTimeout != 0;
    writeSweepJson(os, stats, cfg, seeds, faulty ? 3u : 1u);
    std::cerr << "  wrote sweep JSON to " << path << std::endl;
}

/**
 * Run every workload under every implementation kind, sharded across the
 * sweep pool, INVISIFENCE_BENCH_SEEDS seeds per point.
 */
inline std::map<std::string, ResultRow>
runMatrix(const std::vector<ImplKind>& kinds, const RunConfig& cfg)
{
    const SweepRunner runner;
    const std::uint32_t seeds = benchEnv().seeds;
    std::cerr << "  sweep: " << workloadSuite().size() * kinds.size()
              << " points x " << seeds << " seed(s) on " << runner.jobs()
              << " thread(s)" << std::endl;
    std::vector<SweepStats> stats =
        runner.runStats(workloadSuite(), kinds, cfg, seeds);
    maybeWriteJson(stats, cfg, seeds);
    std::map<std::string, ResultRow> out;
    for (SweepStats& s : stats) {
        const std::string wl = s.workload, impl = s.impl;
        out[wl].emplace(impl, std::move(s));
    }
    return out;
}

/** Geometric mean over per-workload speedups. */
inline double
geomean(const std::vector<double>& v)
{
    double log_sum = 0;
    for (const double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

/**
 * Per-seed paired speedups of @p r over @p base (seed i against seed i),
 * skipping seeds where either side made no committed progress.
 */
inline std::vector<double>
pairedSpeedups(const SweepStats& r, const SweepStats& base)
{
    std::vector<double> sps;
    const std::size_t n = std::min(r.runs.size(), base.runs.size());
    for (std::size_t i = 0; i < n; ++i) {
        const double thr = r.runs[i].throughput();
        const double ref = base.runs[i].throughput();
        if (thr > 0 && ref > 0)
            sps.push_back(thr / ref);
    }
    return sps;
}

/** "1.234" for single-seed runs, "1.234+-0.056" (95% CI) with seeds.
 *  ASCII on purpose: Table pads columns by byte count. */
inline std::string
cellWithCi(const Estimate& e, int decimals = 3)
{
    std::string cell = Table::num(e.mean, decimals);
    if (e.n > 1)
        cell += "+-" + Table::num(e.ci95, decimals);
    return cell;
}

/** Print the classic speedup-over-baseline table. */
inline void
printSpeedups(const std::string& title,
              const std::map<std::string, ResultRow>& matrix,
              const std::vector<ImplKind>& kinds,
              const std::string& baseline)
{
    Table table(title);
    std::vector<std::string> header = {"workload"};
    for (const ImplKind k : kinds)
        header.push_back(implKindName(k));
    table.setHeader(header);

    std::map<std::string, std::vector<double>> per_impl;
    for (const auto& wl : workloadSuite()) {
        const ResultRow& row = matrix.at(wl.name);
        const SweepStats& base = row.at(baseline);
        std::vector<std::string> cells = {wl.name};
        for (const ImplKind k : kinds) {
            const Estimate sp =
                estimateOf(pairedSpeedups(row.at(implKindName(k)), base));
            if (sp.n == 0) {
                // A configuration that made no committed progress in the
                // window (see EXPERIMENTS.md, Figure 11 known gap).
                cells.push_back("stalled");
                continue;
            }
            per_impl[implKindName(k)].push_back(sp.mean);
            cells.push_back(cellWithCi(sp));
        }
        table.addRow(cells);
    }
    std::vector<std::string> gm = {"geomean"};
    for (const ImplKind k : kinds) {
        const auto& v = per_impl[implKindName(k)];
        gm.push_back(v.empty() ? "n/a" : Table::num(geomean(v), 3));
    }
    table.addRow(gm);
    table.print(std::cout);
}

/** Print per-config runtime breakdowns normalized to a baseline. */
inline void
printBreakdowns(const std::string& title,
                const std::map<std::string, ResultRow>& matrix,
                const std::vector<ImplKind>& kinds,
                const std::string& baseline)
{
    Table table(title);
    table.setHeader({"workload", "config", "norm.runtime", "busy",
                     "other", "sb_full", "sb_drain", "violation"});
    for (const auto& wl : workloadSuite()) {
        const ResultRow& row = matrix.at(wl.name);
        const RunResult& base = row.at(baseline).primary();
        for (const ImplKind k : kinds) {
            const RunResult& r = row.at(implKindName(k)).primary();
            const BreakdownShares s = normalizedShares(r, base);
            const double norm =
                r.throughput() > 0 && base.throughput() > 0
                    ? base.throughput() / r.throughput()
                    : 0.0;
            table.addRow({wl.name, r.impl,
                          norm > 0 ? Table::num(norm, 3) : "stalled",
                          Table::pct(s.busy), Table::pct(s.other),
                          Table::pct(s.sbFull), Table::pct(s.sbDrain),
                          Table::pct(s.violation)});
        }
    }
    table.print(std::cout);
}

/**
 * Value-axis sweep: one point per (workload name, value) pair, with
 * @p apply editing the config for each value and @p label naming the
 * value in the point's "impl" tag. Each point is widened across
 * INVISIFENCE_BENCH_SEEDS, the grid runs on the shared pool, and
 * INVISIFENCE_BENCH_JSON is honored. Returned stats are name-major,
 * then value order.
 */
template <typename V, typename Apply, typename Label>
inline std::vector<SweepStats>
runValueSweep(const std::vector<const char*>& names,
              const std::vector<V>& values, ImplKind kind,
              const RunConfig& base, Apply&& apply, Label&& label)
{
    const std::uint32_t seeds = benchEnv().seeds;
    std::vector<SweepPoint> grid;
    for (const char* name : names) {
        for (const V& value : values) {
            SweepPoint proto;
            proto.workload = workloadByName(name);
            proto.kind = kind;
            proto.cfg = base;
            apply(proto.cfg, value);
            for (std::uint32_t s = 0; s < seeds; ++s) {
                SweepPoint p = proto;
                p.cfg.seed = base.seed + s;
                grid.push_back(std::move(p));
            }
        }
    }
    std::vector<RunResult> results = SweepRunner().run(grid);
    std::vector<SweepStats> stats;
    std::size_t i = 0;
    for (const char* name : names) {
        for (const V& value : values) {
            SweepStats s;
            s.workload = name;
            s.impl = std::string(implKindName(kind)) + label(value);
            for (std::uint32_t n = 0; n < seeds; ++n)
                s.runs.push_back(std::move(results[i++]));
            stats.push_back(std::move(s));
        }
    }
    maybeWriteJson(stats, base, seeds);
    return stats;
}

/**
 * Parameter ablation on top of runValueSweep: returns the mean
 * throughput for each point, keyed [name][value-index].
 */
template <typename V, typename Apply>
inline std::map<std::string, std::vector<double>>
runAblation(const std::vector<const char*>& names,
            const std::vector<V>& values, ImplKind kind,
            const RunConfig& base, Apply&& apply)
{
    const std::vector<SweepStats> stats = runValueSweep(
        names, values, kind, base, std::forward<Apply>(apply),
        [](const V& v) {
            // Built up in place: GCC 12's -Wrestrict misfires on the
            // `"@" + std::to_string(v)` temporary chain.
            std::string tag("@");
            tag += std::to_string(v);
            return tag;
        });
    std::map<std::string, std::vector<double>> thr;
    for (const SweepStats& s : stats)
        thr[s.workload].push_back(s.throughput().mean);
    return thr;
}

} // namespace invisifence::bench

#endif // INVISIFENCE_BENCH_BENCH_UTIL_HH
