#include "harness/runner.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <memory>

#include "sim/log.hh"
#include "workload/synthetic.hh"

namespace invisifence {

namespace {

/** Strictly parse @p text as an integer in [lo, hi]; fatal otherwise. */
std::uint64_t
parseEnvInt(const char* name, const char* text, std::uint64_t lo,
            std::uint64_t hi)
{
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    // Demand a bare digit up front: strtoull itself would skip leading
    // whitespace and wrap a '-' sign to a huge unsigned value.
    if (text[0] < '0' || text[0] > '9' || end == text ||
        *end != '\0' || errno == ERANGE || v < lo || v > hi) {
        IF_FATAL("%s='%s' is not an integer in [%llu, %llu]", name, text,
                 static_cast<unsigned long long>(lo),
                 static_cast<unsigned long long>(hi));
    }
    return v;
}

/** Value of env var @p name, or @p unset when absent. */
std::uint64_t
envOr(const char* name, std::uint64_t unset, std::uint64_t lo,
      std::uint64_t hi)
{
    const char* text = std::getenv(name);
    return text ? parseEnvInt(name, text, lo, hi) : unset;
}

/** Strictly parse @p text as a real number in [@p lo, @p hi]. */
double
parseEnvFrac(const char* name, const char* text, double lo, double hi)
{
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (text[0] == '\0' || (text[0] != '.' && (text[0] < '0' ||
        text[0] > '9')) || end == text || *end != '\0' ||
        errno == ERANGE || v < lo || v > hi) {
        IF_FATAL("%s='%s' is not a number in [%g, %g]", name, text, lo,
                 hi);
    }
    return v;
}

BenchEnv
parseBenchEnv()
{
    BenchEnv e;
    e.measureCycles = static_cast<Cycle>(
        envOr("INVISIFENCE_BENCH_CYCLES", 0, 1, 100'000'000'000ull));
    e.seed = envOr("INVISIFENCE_BENCH_SEED", 0, 1, ~0ull);
    e.seeds = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_BENCH_SEEDS", 1, 1, 10'000));
    e.jobs = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_JOBS", 0, 1, 4096));
    e.fuzzPrograms = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_FUZZ_PROGRAMS", 200, 1, 1'000'000));
    if (const char* path = std::getenv("INVISIFENCE_BENCH_JSON"))
        e.jsonPath = path;
    if (const char* frac = std::getenv("INVISIFENCE_WARM_SHARERS")) {
        e.warmSharers =
            parseEnvFrac("INVISIFENCE_WARM_SHARERS", frac, 0.0, 1.0);
    }
    e.numCores = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_NUM_CORES", 0, 1, SharerSet::kMaxNodes));
    e.dimX = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_DIM_X", 0, 1, SharerSet::kMaxNodes));
    e.dimY = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_DIM_Y", 0, 1, SharerSet::kMaxNodes));
    e.hopLatency = static_cast<Cycle>(
        envOr("INVISIFENCE_HOP_LATENCY", 0, 1, 1'000'000));
    e.dirHash =
        static_cast<int>(envOr("INVISIFENCE_DIR_HASH", std::uint64_t(-1),
                               0, 1));
    e.maxCycles = static_cast<Cycle>(
        envOr("INVISIFENCE_MAX_CYCLES", 0, 1, ~0ull));
    e.faultSeed = envOr("INVISIFENCE_FAULT_SEED", 0, 1, ~0ull);
    e.faultDrop = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_FAULT_DROP", 0, 0, 65536));
    e.faultDelay = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_FAULT_DELAY", 0, 0, 65536));
    e.faultDup = static_cast<std::uint32_t>(
        envOr("INVISIFENCE_FAULT_DUP", 0, 0, 65536));
    e.watchdog = static_cast<Cycle>(
        envOr("INVISIFENCE_WATCHDOG", 0, 1, ~0ull));
    return e;
}

} // namespace

const BenchEnv&
benchEnv()
{
    static const BenchEnv env = parseBenchEnv();
    return env;
}

RunConfig
RunConfig::fromEnv()
{
    const BenchEnv& env = benchEnv();
    RunConfig cfg;
    if (env.measureCycles > 0) {
        cfg.measureCycles = env.measureCycles;
        cfg.warmupCycles = env.measureCycles / 6;
    }
    if (env.seed > 0)
        cfg.seed = env.seed;
    if (env.numCores > 0)
        cfg.system.numCores = env.numCores;
    if (env.dimX > 0)
        cfg.system.net.dimX = env.dimX;
    if (env.dimY > 0)
        cfg.system.net.dimY = env.dimY;
    if (env.hopLatency > 0)
        cfg.system.net.perHopLatency = env.hopLatency;
    if (env.dirHash >= 0)
        cfg.system.dirHashHome = env.dirHash != 0;
    if (env.faultSeed != 0)
        cfg.system.fault.seed = env.faultSeed;
    if (env.faultDrop != 0 || env.faultDelay != 0 || env.faultDup != 0) {
        cfg.system.fault.dropPer64k = env.faultDrop;
        cfg.system.fault.delayPer64k = env.faultDelay;
        cfg.system.fault.dupPer64k = env.faultDup;
        // Dropped requests without retries would simply wedge the run:
        // arm a default request timeout sitting well above the
        // worst-case clean round trip of the bench torus.
        if (cfg.system.agent.retryTimeout == 0)
            cfg.system.agent.retryTimeout = 3000;
    }
    if (env.watchdog != 0)
        cfg.system.watchdog = env.watchdog;
    return cfg;
}

namespace {

using R = RunResult;
using B = Breakdown;

/** The table behind runFields(): {JSON key, registry pattern, first
 *  schema revision, RunResult field or breakdown category}. Top-level
 *  counters come in JSON key order (v1, v2, v3), then the breakdown,
 *  whose patterns also match the cycles still pending in checkpoint
 *  slots ("coreN.spec.ckptK.cycles.<category>"). */
constexpr RunField kRunFields[] = {
    {"retired", nullptr, 1, &R::retired},
    {"core_cycles", "core*.cycles", 1, &R::coreCycles},
    {"speculating_cycles", "core*.spec.cycles_speculating", 1,
     &R::speculatingCycles},
    {"aborts", "core*.spec.aborts", 1, &R::aborts},
    {"commits", "core*.spec.commits", 1, &R::commits},
    {"mshr_full_stalls", "core*.agent.mshr.full_stalls", 2,
     &R::mshrFullStalls},
    {"dir_stale_writebacks", "core*.dir.stale_writebacks", 2,
     &R::dirStaleWritebacks},
    {"dir_queued_requests", "core*.dir.queued_requests", 2,
     &R::dirQueuedRequests},
    {"retries", "core*.agent.retries", 3, &R::retries},
    {"drops_injected", "system.fault.drops", 3, &R::dropsInjected},
    {"dups_squashed", "core*.dir.dups_squashed", 3, &R::dupsSquashed},
    {"timeout_backoff_max", "core*.agent.retry_backoff_max", 3,
     &R::timeoutBackoffMax},
    {"busy", "core*.cycles.busy", 1, nullptr, &B::busy},
    {"other", "core*.cycles.other", 1, nullptr, &B::other},
    {"sb_full", "core*.cycles.sb_full", 1, nullptr, &B::sbFull},
    {"sb_drain", "core*.cycles.sb_drain", 1, nullptr, &B::sbDrain},
    {"violation", "core*.cycles.violation", 1, nullptr, &B::violation},
};

} // namespace

std::span<const RunField>
runFields()
{
    return kRunFields;
}

SharerSet
warmSharerMask(Addr block, std::uint32_t num_nodes, double sharer_fraction)
{
    if (sharer_fraction <= 0.0 || sharer_fraction >= 1.0)
        return SharerSet::firstN(num_nodes);
    // ceil(fraction * n), clamped to [1, n]: at least one sharer, and a
    // fraction of 1.0 degenerates to the legacy everywhere set above.
    std::uint32_t k = static_cast<std::uint32_t>(
        sharer_fraction * num_nodes + 0.999999);
    if (k < 1)
        k = 1;
    if (k > num_nodes)
        k = num_nodes;
    // Deterministic, block-dependent subset: k consecutive nodes
    // starting at the block's hash. Consecutive is a fine stand-in for
    // the sparse sharer sets a real warm checkpoint would record; what
    // matters for the Inv storm is the count, not the identity.
    const std::uint32_t start =
        static_cast<std::uint32_t>(block >> kBlockShift) % num_nodes;
    SharerSet sharers;
    for (std::uint32_t i = 0; i < k; ++i)
        sharers.set((start + i) % num_nodes);
    return sharers;
}

namespace {

/** Owner argument of a warm block primed Shared (no single owner). */
constexpr NodeId kNoOwner = ~NodeId{0};

/**
 * Visit warmSystem's warm set in priming order: @p fn(block, owner)
 * for a block primed Exclusive at @p owner, @p fn(block, kNoOwner) for
 * one primed Shared.
 */
template <typename Fn>
void
forEachWarmBlock(const SyntheticParams& params, std::uint32_t n,
                 std::uint32_t l2_blocks, Fn&& fn)
{
    // Never prime more than fits comfortably: overflowing the L2 here
    // would trigger an eviction storm before the run even starts.
    const std::uint32_t priv_cap = l2_blocks / 2;
    const std::uint32_t shared_cap = l2_blocks / 4;

    // Private working sets: Exclusive at their owning core.
    const std::uint32_t priv =
        std::min<std::uint32_t>(params.privateBlocks, priv_cap);
    for (std::uint32_t t = 0; t < n; ++t) {
        const Addr base = kPrivateRegion + t * kPrivateStride;
        for (std::uint32_t b = 0; b < priv; ++b)
            fn(base + static_cast<Addr>(b) * kBlockBytes, t);
    }

    // Shared region and lock words: Shared.
    const std::uint32_t shared =
        std::min<std::uint32_t>(params.sharedBlocks, shared_cap);
    for (std::uint32_t b = 0; b < shared; ++b)
        fn(kSharedRegion + static_cast<Addr>(b) * kBlockBytes, kNoOwner);
    const std::uint32_t locks =
        std::min<std::uint32_t>(params.numLocks, l2_blocks / 16);
    for (std::uint32_t l = 0; l < locks; ++l)
        fn(lockAddr(l), kNoOwner);

    // Lock-protected data: migratory; start at a round-robin owner.
    for (std::uint32_t l = 0; l < locks; ++l) {
        const NodeId owner = l % n;
        const Addr base = kLockDataRegion +
                          static_cast<Addr>(l) * params.lockDataBlocks *
                              kBlockBytes;
        for (std::uint32_t b = 0; b < params.lockDataBlocks; ++b)
            fn(base + static_cast<Addr>(b) * kBlockBytes, owner);
    }
}

} // namespace

void
warmSystem(System& sys, const SyntheticParams& params,
           double sharer_fraction)
{
    const std::uint32_t n = sys.numCores();
    const BlockData zero{};
    const std::uint32_t l2_blocks = static_cast<std::uint32_t>(
        sys.agent(0).params().l2Size / kBlockBytes);
    const HomeMap& homes = sys.homeMap();

    // Size each directory slice's table once for the blocks it homes.
    std::vector<std::size_t> homed(n, 0);
    forEachWarmBlock(params, n, l2_blocks, [&](Addr block, NodeId) {
        ++homed[homes.homeOf(block)];
    });
    for (std::uint32_t i = 0; i < n; ++i)
        sys.directory(i).reserve(homed[i]);

    forEachWarmBlock(params, n, l2_blocks, [&](Addr block, NodeId owner) {
        DirectorySlice& home = sys.directory(homes.homeOf(block));
        if (owner != kNoOwner) {
            sys.agent(owner).primeBlock(block, CoherenceState::Exclusive,
                                        zero);
            home.primeOwned(block, owner);
            return;
        }
        // Shared at the (full or sharer-precise) warm sharer set.
        const SharerSet sharers =
            warmSharerMask(block, n, sharer_fraction);
        sharers.forEach([&](NodeId t) {
            sys.agent(t).primeBlock(block, CoherenceState::Shared, zero);
        });
        home.primeShared(block, sharers);
    });
}

RunResult
runExperiment(const Workload& workload, ImplKind kind,
              const RunConfig& cfg)
{
    std::vector<std::unique_ptr<ThreadProgram>> programs;
    for (std::uint32_t t = 0; t < cfg.system.numCores; ++t) {
        programs.push_back(std::make_unique<SyntheticProgram>(
            workload.params, t, cfg.seed));
    }
    System sys(cfg.system, std::move(programs), kind);
    if (cfg.warmStart)
        warmSystem(sys, workload.params, benchEnv().warmSharers);

    const StatRegistry& reg = sys.stats();
    sys.run(cfg.warmupCycles);
    const StatRegistry::Snapshot before = reg.snapshot();
    sys.run(cfg.measureCycles);
    const StatRegistry::Snapshot after = reg.snapshot();

    RunResult r;
    r.workload = workload.name;
    r.impl = implKindName(kind);
    r.seed = cfg.seed;
    for (const RunField& f : runFields()) {
        if (f.stat)
            f.of(r) = reg.window(before, after, f.stat);
    }
    // Committed instructions only: retirements discarded by an abort are
    // re-executed and would otherwise be double counted. Clamp: an abort
    // right after the sample can discard work retired before it.
    const auto committed = [&reg](const StatRegistry::Snapshot& s) {
        const std::uint64_t retired = reg.aggregate(s, "core*.retired");
        const std::uint64_t aborted =
            reg.aggregate(s, "core*.spec.aborted_retired");
        return retired >= aborted ? retired - aborted : 0;
    };
    const std::uint64_t committed_before = committed(before);
    const std::uint64_t committed_after = committed(after);
    r.retired = committed_after >= committed_before
                    ? committed_after - committed_before
                    : 0;
    return r;
}

BreakdownShares
shares(const RunResult& r)
{
    BreakdownShares s;
    const double total = static_cast<double>(r.coreCycles);
    if (total <= 0)
        return s;
    s.busy = static_cast<double>(r.breakdown.busy) / total;
    s.other = static_cast<double>(r.breakdown.other) / total;
    s.sbFull = static_cast<double>(r.breakdown.sbFull) / total;
    s.sbDrain = static_cast<double>(r.breakdown.sbDrain) / total;
    s.violation = static_cast<double>(r.breakdown.violation) / total;
    return s;
}

BreakdownShares
normalizedShares(const RunResult& r, const RunResult& baseline)
{
    BreakdownShares s = shares(r);
    const double thr = r.throughput();
    if (thr <= 0)
        return s;
    const double scale = baseline.throughput() / thr;
    s.busy *= scale;
    s.other *= scale;
    s.sbFull *= scale;
    s.sbDrain *= scale;
    s.violation *= scale;
    return s;
}

} // namespace invisifence
