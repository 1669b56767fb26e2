/**
 * @file
 * ifbench: how fast the simulator turns out figure points.
 *
 * One operation is one figure point, the unit every figure bench runs:
 * build a System for (workload, ImplKind, machine, seed), prime it with
 * warmSystem(), run the 12k-cycle warm-up, then the 50k-cycle measured
 * window (the RunConfig defaults). Points run serially in one thread,
 * in a closed loop. A point's host times are the minimum over its
 * passes, because host noise only ever slows a run down.
 *
 * Every point's modelled outcome (probe.hh) is checked against the
 * digest committed in expected_digests.json, against its other passes,
 * and, in traced runs, against its untraced run.
 *
 * Usage:
 *   ifbench --workload NAME --seed N --seconds S --trace 0|1
 *           [--digests FILE]
 *       One benchmark run of one workload; the last stdout line is a
 *       JSON result. --seconds sizes the number of grid seeds (1..K)
 *       and of passes over them (at least two); --seed fixes their
 *       order. --trace 0 reports the end-to-end metrics, --trace 1 the
 *       per-layer ones.
 *   ifbench --grid full|smoke [--digests FILE] [--out FILE]
 *           [--against FILE] [--write-digests FILE]
 *       The whole figure grid: every workload over seeds 1..40, two
 *       interleaved passes, then a traced pass over seeds 1..10, then a
 *       check of seed 1 against runExperiment(). smoke is 2 seeds, one
 *       pass. --out writes the results JSON, --against compares the
 *       end-to-end metrics with a baseline's medians, --write-digests
 *       regenerates the expected digests instead of checking them.
 */

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "heap.hh"
#include "probe.hh"
#include "trace.hh"
#include "workload/synthetic.hh"
#include "workload/workloads.hh"

#ifndef IFBENCH_BUILD_TYPE
#define IFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using invisifence::ImplKind;
using invisifence::RunConfig;
using invisifence::System;
using invisifence::ThreadProgram;
using ifbench::Counters;
using ifbench::LayerTotals;
using ifbench::Outcome;
using ifbench::Stat;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Seeds per workload in a figure grid; expected digests cover them. */
constexpr std::uint64_t kGridSeeds = 40;
/** Host cost of one traced point in a workload run (an untraced run
 *  plus a traced run), in units of a plain point. */
constexpr double kTracedPairCost = 2.4;
/** Share of --seconds a workload run plans to fill at the nominal point
 *  costs; the rest is headroom for a host slower than the baseline's. */
constexpr double kPlannedShare = 0.85;
/** Fewest passes over a workload run's points. A point's host times are
 *  the minimum over its passes, so a host stall during one pass does not
 *  reach the percentile metrics. */
constexpr std::size_t kMinPasses = 2;

/** One benchmark workload: a figure point family. */
struct BenchWorkload
{
    const char* name;
    const char* program;   //!< workloadByName() key
    ImplKind kind;
    std::uint32_t cores;
    /** The fig13 scale machine: hashed homes, derived torus, 512 KB L2. */
    bool scaleMachine;
    /** Planning figure only, not a measurement: host seconds per point
     *  on the baseline host, used to size a workload run's point count. */
    double nominalPointS;
};

const std::array<BenchWorkload, 4> kWorkloads = {{
    {"apache16-invisi_sc", "Apache", ImplKind::InvisiSC, 16, false, 0.31},
    {"ocean16-rmo", "Ocean", ImplKind::ConvRMO, 16, false, 0.86},
    {"zipfkv64-invisi_sc", "ZipfKV", ImplKind::InvisiSC, 64, true, 0.175},
    {"oltp16-cont_cov", "OLTP-Oracle", ImplKind::ContinuousCoV, 16, false,
     0.385},
}};

const BenchWorkload*
findWorkload(const std::string& name)
{
    for (const BenchWorkload& w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

RunConfig
configFor(const BenchWorkload& w, std::uint64_t seed)
{
    RunConfig cfg;   // 12k warm-up, 50k measured, SystemParams::bench()
    cfg.seed = seed;
    cfg.system.numCores = w.cores;
    if (w.scaleMachine) {
        cfg.system.dirHashHome = true;
        cfg.system.agent.l2Size = 512 * 1024;
        cfg.system.net.dimX = 0;
        cfg.system.net.dimY = 0;
    }
    return cfg;
}

// ---------------------------------------------------------------------
// One point
// ---------------------------------------------------------------------

struct PointRun
{
    std::uint64_t seed = 0;
    bool traced = false;
    Outcome outcome;
    Counters activity;          //!< measured-window deltas
    double setupS = 0;          //!< construct System + warmSystem
    double measureS = 0;        //!< run(measureCycles)
    double pointS = 0;          //!< build through teardown
    std::uint64_t allocs = 0;   //!< operator new calls in the window
    std::size_t heapPeak = 0;   //!< peak live heap bytes in the point
    LayerTotals spans;          //!< traced runs only
    std::uint64_t windowTicks = 0;
};

PointRun
runPoint(const BenchWorkload& w, std::uint64_t seed, bool traced)
{
    const RunConfig cfg = configFor(w, seed);
    const invisifence::Workload& wl = invisifence::workloadByName(w.program);
    PointRun r;
    r.seed = seed;
    r.traced = traced;
    ifbench::Tracer tracer;
    // Declared before the System: agents point at these listeners.
    std::vector<std::unique_ptr<ifbench::TracedListener>> listeners;
    ifbench::heap::resetPeak();
    const Clock::time_point t0 = Clock::now();
    {
        std::vector<std::unique_ptr<ThreadProgram>> programs;
        for (std::uint32_t t = 0; t < cfg.system.numCores; ++t) {
            auto p = std::make_unique<invisifence::SyntheticProgram>(
                wl.params, t, cfg.seed);
            if (traced) {
                programs.push_back(std::make_unique<ifbench::TracedProgram>(
                    std::move(p), tracer));
            } else {
                programs.push_back(std::move(p));
            }
        }
        System sys(cfg.system, std::move(programs), w.kind);
        if (traced)
            ifbench::attachTracing(sys, tracer, listeners);
        invisifence::warmSystem(sys, wl.params,
                                invisifence::benchEnv().warmSharers);
        r.setupS = secondsSince(t0);

        sys.run(cfg.warmupCycles);
        const Counters before = ifbench::readCounters(sys);
        tracer.reset();
        const std::uint64_t allocs0 = ifbench::heap::allocations();
        const std::uint64_t tick0 = ifbench::ticks();
        const Clock::time_point tm = Clock::now();
        sys.run(cfg.measureCycles);
        r.measureS = secondsSince(tm);
        r.windowTicks = ifbench::ticks() - tick0;
        r.allocs = ifbench::heap::allocations() - allocs0;
        r.spans = tracer.totals();
        const Counters after = ifbench::readCounters(sys);
        r.outcome = ifbench::outcomeOf(before, after);
        r.activity = ifbench::windowDelta(before, after);
    }
    r.pointS = secondsSince(t0);
    r.heapPeak = ifbench::heap::peakBytes();
    return r;
}

// ---------------------------------------------------------------------
// Outcome checks
// ---------------------------------------------------------------------

using PointKey = std::pair<std::string, std::uint64_t>;
using Expected = std::map<PointKey, Outcome>;

[[noreturn]] void
die(const std::string& msg)
{
    std::fprintf(stderr, "ifbench: %s\n", msg.c_str());
    std::exit(2);
}

std::string
hex64(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Read expected_digests.json: one point per line, machine-written by
 *  writeExpected(), so a line scan suffices. Each line's digest must
 *  match its own values (a hand-edited file is caught). */
Expected
loadExpected(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        die("cannot read expected digests '" + path + "'");
    Expected out;
    std::string line;
    while (std::getline(is, line)) {
        const std::size_t wk = line.find("\"workload\": \"");
        if (wk == std::string::npos)
            continue;
        const std::size_t name_at = wk + 13;
        const std::size_t name_end = line.find('"', name_at);
        const std::size_t seed_at = line.find("\"seed\": ");
        const std::size_t dig_at = line.find("\"digest\": \"");
        const std::size_t val_at = line.find("\"values\": [");
        if (name_end == std::string::npos || seed_at == std::string::npos ||
            dig_at == std::string::npos || val_at == std::string::npos)
            die("malformed expected-digest line: " + line);
        const std::string name = line.substr(name_at, name_end - name_at);
        const std::uint64_t seed =
            std::strtoull(line.c_str() + seed_at + 8, nullptr, 10);
        const std::uint64_t digest =
            std::strtoull(line.c_str() + dig_at + 11, nullptr, 16);
        Outcome o;
        const char* p = line.c_str() + val_at + 11;
        for (std::uint64_t& x : o.v) {
            char* end = nullptr;
            x = std::strtoull(p, &end, 10);
            if (end == p)
                die("malformed expected-digest values: " + line);
            p = end;
            while (*p == ',' || *p == ' ')
                ++p;
        }
        if (*p != ']' || o.digest() != digest)
            die("expected-digest line does not match its digest: " + line);
        out[{name, seed}] = o;
    }
    return out;
}

void
writeExpected(const std::string& path, const Expected& points)
{
    std::ofstream os(path);
    if (!os)
        die("cannot write '" + path + "'");
    os << "{\n  \"schema\": \"ifbench-digests-v1\",\n  \"fields\": [";
    for (std::size_t i = 0; i < Outcome::kFields; ++i)
        os << (i ? ", " : "") << '"' << Outcome::kNames[i] << '"';
    os << "],\n  \"points\": [\n";
    std::size_t n = 0;
    for (const auto& [key, o] : points) {
        os << "    {\"workload\": \"" << key.first << "\", \"seed\": "
           << key.second << ", \"digest\": \"" << hex64(o.digest())
           << "\", \"values\": [";
        for (std::size_t i = 0; i < o.v.size(); ++i)
            os << (i ? ", " : "") << o.v[i];
        os << "]}" << (++n < points.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
}

/** "field: got X, expected Y" for the first field that differs. */
std::string
firstDifference(const std::uint64_t* got, const std::uint64_t* want,
                std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (got[i] != want[i]) {
            return std::string(Outcome::kNames[i]) + ": got " +
                   std::to_string(got[i]) + ", expected " +
                   std::to_string(want[i]);
        }
    }
    return "no field differs";
}

/** Counts points and the points that failed any check. */
class Checker
{
  public:
    explicit Checker(const Expected* expected) : expected_(expected) {}

    void
    attempt(const BenchWorkload& w, std::uint64_t seed)
    {
        attempted_.insert({w.name, seed});
    }

    /** Compare @p got against @p want; record a failure of the point. */
    void
    expect(const BenchWorkload& w, std::uint64_t seed,
           const std::uint64_t* got, const std::uint64_t* want,
           std::size_t n, const char* what)
    {
        if (std::equal(got, got + n, want))
            return;
        fail(w, seed, std::string(what) + " differs; " +
                          firstDifference(got, want, n));
    }

    /** The committed-digest check (skipped when regenerating). */
    void
    expectCommitted(const BenchWorkload& w, const PointRun& r)
    {
        if (!expected_)
            return;
        const auto it = expected_->find({w.name, r.seed});
        if (it == expected_->end()) {
            fail(w, r.seed, "no expected digest");
            return;
        }
        expect(w, r.seed, r.outcome.v.data(), it->second.v.data(),
               Outcome::kFields,
               r.traced ? "traced outcome vs expected digest"
                        : "outcome vs expected digest");
    }

    void
    fail(const BenchWorkload& w, std::uint64_t seed, const std::string& why)
    {
        failed_.insert({w.name, seed});
        std::fprintf(stderr, "ifbench: FAILED %s seed %llu: %s\n", w.name,
                     static_cast<unsigned long long>(seed), why.c_str());
    }

    std::uint64_t attempted() const { return attempted_.size(); }
    std::uint64_t failed() const { return failed_.size(); }

  private:
    const Expected* expected_;
    std::set<PointKey> attempted_;
    std::set<PointKey> failed_;
};

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

/** Linear-interpolated quantile (q in [0, 1]) of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

struct Metric
{
    const char* name;
    const char* unit;
    double value;
};

/** The end-to-end metrics; BENCHMARK.json mirrors names and bounds. */
struct EndToEndSpec
{
    const char* name;
    const char* unit;
    bool higherIsBetter;
    double bound;
};
const std::array<EndToEndSpec, 5> kEndToEnd = {{
    {"kcps", "kcyc/s", true, 0.24},
    {"point_s_p75", "s", false, 0.24},
    {"sweep_s", "s", false, 0.24},
    {"setup_s", "s", false, 0.25},
    {"heap_peak_mb", "MiB", false, 0.02},
}};

/** A point's best (minimum-time) run over its passes. */
struct PointSummary
{
    Outcome outcome;
    double setupS = 0;
    double measureS = 0;
    double pointS = 0;
    std::size_t heapPeak = 0;
    std::uint64_t allocs = 0;
    int runs = 0;
};

void
fold(PointSummary& s, const PointRun& r)
{
    if (s.runs++ == 0) {
        s.outcome = r.outcome;
        s.setupS = r.setupS;
        s.measureS = r.measureS;
        s.pointS = r.pointS;
        s.allocs = r.allocs;
    } else {
        s.setupS = std::min(s.setupS, r.setupS);
        s.measureS = std::min(s.measureS, r.measureS);
        s.pointS = std::min(s.pointS, r.pointS);
    }
    s.heapPeak = std::max(s.heapPeak, r.heapPeak);
}

std::vector<Metric>
endToEnd(const std::map<std::uint64_t, PointSummary>& points)
{
    const double kcyc =
        static_cast<double>(RunConfig{}.measureCycles) / 1000.0;
    std::vector<double> kcps, point_s, setup_s;
    std::size_t heap_peak = 0;
    for (const auto& [seed, p] : points) {
        kcps.push_back(ratio(kcyc, p.measureS));
        point_s.push_back(p.pointS);
        setup_s.push_back(p.setupS);
        heap_peak = std::max(heap_peak, p.heapPeak);
    }
    // sweep_s is the cost of the whole kGridSeeds-point figure sweep:
    // the plain sum when every grid point ran, else projected from the
    // mean of the points that did.
    const double sweep =
        std::accumulate(point_s.begin(), point_s.end(), 0.0) *
        static_cast<double>(kGridSeeds) /
        static_cast<double>(std::max<std::size_t>(point_s.size(), 1));
    const std::array<double, 5> values = {
        quantile(kcps, 0.5), quantile(point_s, 0.75), sweep,
        quantile(setup_s, 0.5),
        static_cast<double>(heap_peak) / (1024.0 * 1024.0)};
    std::vector<Metric> out;
    for (std::size_t i = 0; i < kEndToEnd.size(); ++i)
        out.push_back({kEndToEnd[i].name, kEndToEnd[i].unit, values[i]});
    return out;
}

/** Sums over a workload's traced points, with their untraced twins. */
struct LayerSums
{
    std::uint64_t committed = 0;
    Counters activity;
    LayerTotals spans;
    std::uint64_t windowTicks = 0;
    double tracedS = 0;
    double untracedS = 0;
    std::uint64_t untracedAllocs = 0;
    std::uint64_t cycles = 0;   //!< simulated cycles in the windows

    void
    add(const PointRun& traced, const PointSummary& untraced)
    {
        committed += traced.outcome.retired();
        for (std::size_t i = 0; i < activity.v.size(); ++i)
            activity.v[i] += traced.activity.v[i];
        for (std::size_t l = 0; l < ifbench::kLayers; ++l) {
            spans.calls[l] += traced.spans.calls[l];
            spans.selfTicks[l] += traced.spans.selfTicks[l];
        }
        spans.topTicks += traced.spans.topTicks;
        spans.restores += traced.spans.restores;
        windowTicks += traced.windowTicks;
        tracedS += traced.measureS;
        untracedS += untraced.measureS;
        untracedAllocs += untraced.allocs;
        cycles += RunConfig{}.measureCycles;
    }
};

std::vector<Metric>
perLayer(const LayerSums& s)
{
    using ifbench::Layer;
    const Counters& a = s.activity;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const double kcyc = d(s.cycles) / 1000.0;
    const double core_cycles = d(a[Stat::CoreCycles]);
    const double committed = d(s.committed);
    const double kinst = committed / 1000.0;
    const double ns_per_tick = ratio(s.tracedS * 1e9, d(s.windowTicks));
    const auto per_kcyc = [&](std::uint64_t v) { return ratio(d(v), kcyc); };
    const auto of_cycles = [&](Stat stat) {
        return ratio(d(a[stat]), core_cycles);
    };
    const auto idx = [](Layer l) { return static_cast<std::size_t>(l); };
    const auto share = [&](Layer l) {
        return ratio(d(s.spans.selfTicks[idx(l)]), d(s.windowTicks));
    };
    const auto ns_per_call = [&](Layer l) {
        return ratio(d(s.spans.selfTicks[idx(l)]) * ns_per_tick,
                     d(s.spans.calls[idx(l)]));
    };
    const auto calls_per_kcyc = [&](Layer l) {
        return per_kcyc(s.spans.calls[idx(l)]);
    };
    const std::uint64_t dir_requests = a[Stat::DirGetS] +
                                       a[Stat::DirGetM] +
                                       a[Stat::DirWritebacks];
    const std::uint64_t commits = a[Stat::Commits];
    const std::uint64_t aborts = a[Stat::Aborts];
    const std::uint64_t msgs = a[Stat::NetMessages];
    const char* per_kcycle = "1/kcyc";
    const char* frac = "frac";
    return {
        {"sim.events_per_kcycle", per_kcycle, per_kcyc(a[Stat::Events])},
        {"harness.dormant_frac", frac,
         ratio(d(a[Stat::FfCycles]), core_cycles)},
        {"harness.ff_jumps_per_kcycle", per_kcycle,
         per_kcyc(a[Stat::FfJumps])},
        {"harness.shard_skips_per_kcycle", per_kcycle,
         per_kcyc(a[Stat::ShardSkips])},
        {"harness.residual.share", frac,
         1.0 - ratio(d(s.spans.topTicks), d(s.windowTicks))},
        {"coh.network.msgs_per_kcycle", per_kcycle, per_kcyc(msgs)},
        {"coh.network.hops_per_msg", "hops/msg",
         ratio(d(a[Stat::NetHops]), d(msgs))},
        {"coh.network.data_msg_frac", frac,
         ratio(d(a[Stat::NetDataMessages]), d(msgs))},
        {"coh.agent.remote_fills_per_kcycle", per_kcycle,
         per_kcyc(a[Stat::FillsRemote])},
        {"coh.agent.local_fills_per_kcycle", per_kcycle,
         per_kcyc(a[Stat::FillsLocal])},
        {"coh.agent.l2_evictions_per_kcycle", per_kcycle,
         per_kcyc(a[Stat::L2Evictions])},
        {"coh.agent.ext_deferred_frac", "defer/req",
         ratio(d(a[Stat::ExtDeferred]), d(a[Stat::ExtServed]))},
        {"coh.agent.deliver.share", frac, share(Layer::AgentDeliver)},
        {"coh.agent.deliver.ns_per_call", "ns",
         ns_per_call(Layer::AgentDeliver)},
        {"coh.agent.deliver.calls_per_kcycle", per_kcycle,
         calls_per_kcyc(Layer::AgentDeliver)},
        {"mem.mshr_full_stalls_per_kcycle", per_kcycle,
         per_kcyc(a[Stat::MshrFullStalls])},
        {"coh.dir.requests_per_kcycle", per_kcycle, per_kcyc(dir_requests)},
        {"coh.dir.queued_frac", frac,
         ratio(d(a[Stat::DirQueuedRequests]), d(dir_requests))},
        {"coh.dir.invs_per_getm", "inv/getm",
         ratio(d(a[Stat::DirInvalidations]), d(a[Stat::DirGetM]))},
        {"coh.dir.stale_wb_per_kcycle", per_kcycle,
         per_kcyc(a[Stat::DirStaleWritebacks])},
        {"coh.dir.deliver.share", frac, share(Layer::DirDeliver)},
        {"coh.dir.deliver.ns_per_call", "ns", ns_per_call(Layer::DirDeliver)},
        {"cpu.core.ipc", "inst/cyc", ratio(committed, core_cycles)},
        {"cpu.core.l1_load_hit_frac", frac,
         ratio(d(a[Stat::L1LoadHits]),
               d(a[Stat::L1LoadHits] + a[Stat::LoadMisses]))},
        {"cpu.core.mispredicts_per_kinst", "1/kinst",
         ratio(d(a[Stat::Mispredicts]), kinst)},
        {"cpu.core.lq_squashes_per_kinst", "1/kinst",
         ratio(d(a[Stat::LqSquashes]), kinst)},
        {"cpu.core.busy_frac", frac, of_cycles(Stat::Busy)},
        {"cpu.core.other_frac", frac, of_cycles(Stat::Other)},
        {"cpu.core.sb_full_frac", frac, of_cycles(Stat::SbFull)},
        {"cpu.core.sb_drain_frac", frac, of_cycles(Stat::SbDrain)},
        {"cpu.core.violation_frac", frac, of_cycles(Stat::Violation)},
        {"cpu.consistency.listener.share", frac, share(Layer::Listener)},
        {"cpu.consistency.listener.ns_per_call", "ns",
         ns_per_call(Layer::Listener)},
        {"cpu.consistency.listener.calls_per_kcycle", per_kcycle,
         calls_per_kcyc(Layer::Listener)},
        {"core.invisifence.spec_frac", frac, of_cycles(Stat::Speculating)},
        {"core.invisifence.commits_per_kcycle", per_kcycle,
         per_kcyc(commits)},
        {"core.invisifence.abort_frac", frac,
         ratio(d(aborts), d(commits + aborts))},
        {"core.invisifence.useful_frac", frac,
         ratio(d(a[Stat::SpecRetired]),
               d(a[Stat::SpecRetired] + a[Stat::AbortedRetired]))},
        {"core.invisifence.cov_deferrals_per_kcycle", per_kcycle,
         per_kcyc(a[Stat::CovDeferrals])},
        {"workload.fetch.share", frac, share(Layer::Fetch)},
        {"workload.fetch.ns_per_call", "ns", ns_per_call(Layer::Fetch)},
        {"workload.fetches_per_committed", "fetch/inst",
         ratio(d(s.spans.calls[idx(Layer::Fetch)]), committed)},
        {"workload.restores_per_kinst", "1/kinst",
         ratio(d(s.spans.restores), kinst)},
        {"host.allocs_per_kcycle", per_kcycle, per_kcyc(s.untracedAllocs)},
        {"trace.overhead_frac", frac, ratio(s.tracedS, s.untracedS) - 1.0},
    };
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/** A JSON number with every digit a double carries. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsObject(const std::vector<Metric>& metrics, bool with_units)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        s += std::string(i ? ", \"" : "\"") + m.name + "\": ";
        if (with_units) {
            s += "{\"value\": " + num(m.value) + ", \"unit\": \"" + m.unit +
                 "\"}";
        } else {
            s += num(m.value);
        }
    }
    return s + "}";
}

void
printMetrics(const char* workload, const std::vector<Metric>& metrics)
{
    for (const Metric& m : metrics) {
        std::printf("  %-20s %-44s %14.6g %s\n", workload, m.name,
                    m.value, m.unit);
    }
}

// ---------------------------------------------------------------------
// Workload mode: one workload, --seconds of points
// ---------------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string grid;
    std::string digests = "benchmark/expected_digests.json";
    std::string out;
    std::string against;
    std::string writeDigests;
};

/** The grid seeds 1..@p k, in an order fixed by @p seed. The set does
 *  not depend on @p seed: OLTP's point cost spans 25x across seeds, so
 *  seed-chosen subsets would measure the subset, not the simulator. */
std::vector<std::uint64_t>
pickSeeds(std::uint64_t seed, std::size_t k)
{
    std::vector<std::uint64_t> seeds(k);
    std::iota(seeds.begin(), seeds.end(), std::uint64_t{1});
    std::uint64_t x = seed;
    const auto splitmix = [&x] {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    };
    for (std::size_t i = seeds.size() - 1; i > 0; --i)
        std::swap(seeds[i], seeds[splitmix() % (i + 1)]);
    return seeds;
}

/** Points that fit @p seconds at @p cost nominal seconds each. */
std::size_t
pointsFor(double seconds, double cost)
{
    const auto k = static_cast<std::size_t>(seconds / cost);
    return std::clamp<std::size_t>(k, 1, kGridSeeds);
}

/** One untraced run of a point, checked and folded into @p p. */
void
timedRun(Checker& checker, const BenchWorkload& w, std::uint64_t seed,
         PointSummary& p)
{
    checker.attempt(w, seed);
    const PointRun r = runPoint(w, seed, false);
    checker.expectCommitted(w, r);
    if (p.runs > 0) {
        checker.expect(w, seed, r.outcome.v.data(), p.outcome.v.data(),
                       Outcome::kFields, "outcome vs first pass");
    }
    fold(p, r);
}

/** One traced run of a point whose untraced runs are @p untraced. */
void
tracedRun(Checker& checker, const BenchWorkload& w, std::uint64_t seed,
          const PointSummary& untraced, LayerSums& sums)
{
    const PointRun t = runPoint(w, seed, true);
    checker.expectCommitted(w, t);
    checker.expect(w, seed, t.outcome.v.data(), untraced.outcome.v.data(),
                   Outcome::kFields, "traced vs untraced outcome");
    sums.add(t, untraced);
}

int
workloadMode(const Options& o)
{
    const BenchWorkload* w = findWorkload(o.workload);
    if (!w)
        die("unknown workload '" + o.workload + "'");
    const Expected expected = loadExpected(o.digests);
    Checker checker(&expected);
    std::vector<Metric> metrics;
    const double planned = o.seconds * kPlannedShare;
    if (o.trace == 0) {
        // As many grid points as fit kMinPasses passes, then as many
        // whole passes over them as fit; both counts follow from
        // --seconds and the nominal cost alone, so a faster build does
        // the same work.
        const std::size_t k = pointsFor(
            planned, w->nominalPointS * static_cast<double>(kMinPasses));
        const auto passes = std::max<std::size_t>(
            kMinPasses,
            static_cast<std::size_t>(
                planned / (static_cast<double>(k) * w->nominalPointS)));
        const std::vector<std::uint64_t> seeds = pickSeeds(o.seed, k);
        std::map<std::uint64_t, PointSummary> points;
        for (std::size_t pass = 0; pass < passes; ++pass) {
            for (const std::uint64_t s : seeds)
                timedRun(checker, *w, s, points[s]);
        }
        metrics = endToEnd(points);
    } else {
        const std::vector<std::uint64_t> seeds = pickSeeds(
            o.seed, pointsFor(planned, w->nominalPointS * kTracedPairCost));
        LayerSums sums;
        for (const std::uint64_t s : seeds) {
            PointSummary untraced;
            timedRun(checker, *w, s, untraced);
            tracedRun(checker, *w, s, untraced, sums);
        }
        metrics = perLayer(sums);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                checker.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()),
                metricsObject(metrics, true).c_str());
    return 0;
}

// ---------------------------------------------------------------------
// Grid mode: the whole figure grid, every workload
// ---------------------------------------------------------------------

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos && colon + 2 <= line.size())
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang++ ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("g++ ") + __VERSION__;
#else
    return "unknown";
#endif
}

/** Medians of each end-to-end metric per workload over every
 *  {"workload": ..., "e2e": {...}} object in @p path. */
std::map<std::string, std::map<std::string, double>>
baselineMedians(const std::string& path)
{
    std::ifstream is(path);
    if (!is)
        die("cannot read baseline '" + path + "'");
    std::stringstream ss;
    ss << is.rdbuf();
    const std::string text = ss.str();
    std::map<std::string, std::map<std::string, std::vector<double>>> seen;
    for (std::size_t at = text.find("\"e2e\": {"); at != std::string::npos;
         at = text.find("\"e2e\": {", at + 1)) {
        const std::size_t wk = text.rfind("\"workload\": \"", at);
        if (wk == std::string::npos)
            continue;
        const std::size_t name_at = wk + 13;
        const std::string name =
            text.substr(name_at, text.find('"', name_at) - name_at);
        const std::size_t close = text.find('}', at);
        for (const EndToEndSpec& m : kEndToEnd) {
            const std::string key = std::string("\"") + m.name + "\": ";
            const std::size_t k = text.find(key, at);
            if (k != std::string::npos && k < close) {
                seen[name][m.name].push_back(
                    std::strtod(text.c_str() + k + key.size(), nullptr));
            }
        }
    }
    std::map<std::string, std::map<std::string, double>> out;
    for (const auto& [name, metrics] : seen) {
        for (const auto& [metric, values] : metrics)
            out[name][metric] = quantile(values, 0.5);
    }
    return out;
}

void
compareWithBaseline(
    const std::string& path,
    const std::vector<std::pair<const BenchWorkload*, std::vector<Metric>>>&
        results)
{
    const auto base = baselineMedians(path);
    std::printf("\nAgainst the baseline medians in %s (bounds are only "
                "meaningful on the baseline's host):\n",
                path.c_str());
    for (const auto& [w, metrics] : results) {
        const auto wb = base.find(w->name);
        for (std::size_t i = 0; i < kEndToEnd.size(); ++i) {
            const EndToEndSpec& spec = kEndToEnd[i];
            if (wb == base.end() || !wb->second.count(spec.name))
                continue;
            const double ref = wb->second.at(spec.name);
            const double change = ratio(metrics[i].value - ref, ref);
            const double worse = spec.higherIsBetter ? -change : change;
            std::printf("  %-20s %-14s %12.6g vs %12.6g  %+6.1f%%  "
                        "bound %4.1f%%  %s\n",
                        w->name, spec.name, metrics[i].value, ref,
                        100.0 * change, 100.0 * spec.bound,
                        worse > spec.bound ? "WORSE THAN BOUND"
                                           : "within bound");
        }
    }
}

int
gridMode(const Options& o)
{
    if (o.grid != "full" && o.grid != "smoke")
        die("--grid takes full or smoke");
    const bool full = o.grid == "full";
    const std::uint64_t seeds = full ? kGridSeeds : 2;
    const int passes = full ? 2 : 1;
    const std::uint64_t traced_seeds = full ? 10 : 2;

    const bool regold = !o.writeDigests.empty();
    const Expected expected = regold ? Expected{} : loadExpected(o.digests);
    Checker checker(regold ? nullptr : &expected);
    std::vector<std::map<std::uint64_t, PointSummary>> points(
        kWorkloads.size());
    const Clock::time_point t0 = Clock::now();
    for (int pass = 0; pass < passes; ++pass) {
        // Rounds interleave: seed s of every workload before seed s+1.
        for (std::uint64_t s = 1; s <= seeds; ++s) {
            for (std::size_t wi = 0; wi < kWorkloads.size(); ++wi)
                timedRun(checker, kWorkloads[wi], s, points[wi][s]);
        }
        std::fprintf(stderr, "ifbench: pass %d/%d done at %.1f s\n",
                     pass + 1, passes, secondsSince(t0));
    }

    std::vector<LayerSums> layers(kWorkloads.size());
    for (std::size_t wi = 0; wi < kWorkloads.size(); ++wi) {
        for (std::uint64_t s = 1; s <= traced_seeds; ++s)
            tracedRun(checker, kWorkloads[wi], s, points[wi][s], layers[wi]);
    }
    std::fprintf(stderr, "ifbench: traced pass done at %.1f s\n",
                 secondsSince(t0));

    // Tie the benchmark's point to the path the goldens pin.
    for (std::size_t wi = 0; wi < kWorkloads.size(); ++wi) {
        const BenchWorkload& w = kWorkloads[wi];
        const invisifence::RunResult rr = invisifence::runExperiment(
            invisifence::workloadByName(w.program), w.kind, configFor(w, 1));
        const auto fields = ifbench::runResultFields(rr);
        checker.expect(w, 1, points[wi][1].outcome.v.data(), fields.data(),
                       fields.size(), "outcome vs runExperiment()");
    }

    if (regold) {
        Expected gold;
        for (std::size_t wi = 0; wi < kWorkloads.size(); ++wi) {
            for (const auto& [s, p] : points[wi])
                gold[{kWorkloads[wi].name, s}] = p.outcome;
        }
        writeExpected(o.writeDigests, gold);
        std::fprintf(stderr, "ifbench: wrote %zu digests to %s\n",
                     gold.size(), o.writeDigests.c_str());
    }

    std::vector<std::pair<const BenchWorkload*, std::vector<Metric>>> e2e;
    std::printf("ifbench %s grid: %llu seeds x %d pass(es), %llu traced "
                "seeds; %llu points, %llu failed\n",
                o.grid.c_str(), static_cast<unsigned long long>(seeds),
                passes, static_cast<unsigned long long>(traced_seeds),
                static_cast<unsigned long long>(checker.attempted()),
                static_cast<unsigned long long>(checker.failed()));
    std::ostringstream json;
    json << "{\n  \"schema\": \"ifbench-results-v1\",\n  \"grid\": \""
         << o.grid << "\",\n  \"seeds\": " << seeds
         << ",\n  \"passes\": " << passes
         << ",\n  \"traced_seeds\": " << traced_seeds
         << ",\n  \"host\": {\"nproc\": "
         << std::thread::hardware_concurrency() << ", \"compiler\": \""
         << compilerName() << "\", \"cpu\": \"" << cpuModel()
         << "\", \"build_type\": \"" << IFBENCH_BUILD_TYPE
         << "\"},\n  \"attempted\": " << checker.attempted()
         << ",\n  \"failed\": " << checker.failed()
         << ",\n  \"workloads\": [\n";
    for (std::size_t wi = 0; wi < kWorkloads.size(); ++wi) {
        const BenchWorkload& w = kWorkloads[wi];
        const std::vector<Metric> end_to_end = endToEnd(points[wi]);
        const std::vector<Metric> layer = perLayer(layers[wi]);
        printMetrics(w.name, end_to_end);
        printMetrics(w.name, layer);
        json << "    {\"workload\": \"" << w.name << "\", \"e2e\": "
             << metricsObject(end_to_end, false)
             << ", \"layers\": " << metricsObject(layer, false) << "}"
             << (wi + 1 < kWorkloads.size() ? "," : "") << "\n";
        e2e.emplace_back(&w, end_to_end);
    }
    json << "  ]\n}\n";
    if (!o.out.empty()) {
        std::ofstream os(o.out);
        if (!os)
            die("cannot write '" + o.out + "'");
        os << json.str();
    }
    if (!o.against.empty())
        compareWithBaseline(o.against, e2e);
    return checker.failed() == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------

std::uint64_t
parseUint(const std::string& flag, const char* text, std::uint64_t lo,
          std::uint64_t hi)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (text[0] < '0' || text[0] > '9' || *end != '\0' || errno != 0 ||
        v < lo || v > hi) {
        die(flag + " wants an integer in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "], got '" + text + "'");
    }
    return v;
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            die(arg + " needs a value");
        const char* val = argv[++i];
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--seed") {
            o.seed = parseUint(arg, val, 0, ~std::uint64_t{0});
        } else if (arg == "--seconds") {
            o.seconds = static_cast<double>(parseUint(arg, val, 1, 3600));
        } else if (arg == "--trace") {
            o.trace = static_cast<int>(parseUint(arg, val, 0, 1));
        } else if (arg == "--grid") {
            o.grid = val;
        } else if (arg == "--digests") {
            o.digests = val;
        } else if (arg == "--out") {
            o.out = val;
        } else if (arg == "--against") {
            o.against = val;
        } else if (arg == "--write-digests") {
            o.writeDigests = val;
        } else {
            die("unknown option '" + arg + "'");
        }
    }
    return o;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options o = parseArgs(argc, argv);
    if (!o.grid.empty())
        return gridMode(o);
    if (o.workload.empty() || o.seconds <= 0 || o.trace < 0)
        die("need --workload NAME --seed N --seconds S --trace 0|1, "
            "or --grid full|smoke");
    return workloadMode(o);
}
