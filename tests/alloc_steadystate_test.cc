/** @file Zero-allocation steady state: after warmup, simulating any of
 *  the 10 implementation kinds must perform no heap allocation at all —
 *  the typed pooled event path, Msg slab recycling, MSHR/ROB/store-
 *  buffer pooling, and the directory's recycled transaction map leave
 *  nothing that touches the heap per cycle. The test binary replaces
 *  global operator new/delete with counting versions; on failure it
 *  prints deduplicated backtraces of the offending allocation sites
 *  (link with -rdynamic for symbol names).
 *
 *  Also pins the pooled event path's behavioral invisibility in
 *  fastforward_test.cc style: fastfwd on vs off stays bit-identical for
 *  every kind x seed x workload now that events are pooled and
 *  dispatched through the devirtualized table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstdio>
#include <new>

#if defined(__GLIBC__)
#include <execinfo.h>
#include <malloc.h>
#define INVISIFENCE_HAVE_BACKTRACE 1
#define INVISIFENCE_HAVE_USABLE_SIZE 1
#endif

#include "core/invisifence.hh"
#include "harness/runner.hh"
#include "test_util.hh"
#include "workload/synthetic.hh"
#include "workload/workloads.hh"

// ---------------------------------------------------------------------
// Counting operator new/delete with allocation-site capture.
// ---------------------------------------------------------------------

namespace {

std::uint64_t g_allocCount = 0;
/** Live heap bytes through operator new (usable sizes; glibc only). */
std::size_t g_liveBytes = 0;
bool g_captureSites = false;

constexpr int kSiteDepth = 8;
constexpr int kMaxSites = 64;

struct AllocSite
{
    void* frames[kSiteDepth];
    int depth = 0;
    std::uint64_t count = 0;
};

AllocSite g_sites[kMaxSites];
int g_numSites = 0;

void
recordSite()
{
#ifdef INVISIFENCE_HAVE_BACKTRACE
    void* frames[kSiteDepth];
    // Re-entrancy guard: backtrace() may itself allocate on first use.
    static bool in_capture = false;
    if (in_capture)
        return;
    in_capture = true;
    const int depth = backtrace(frames, kSiteDepth);
    in_capture = false;
    for (int s = 0; s < g_numSites; ++s) {
        AllocSite& site = g_sites[s];
        if (site.depth != depth)
            continue;
        bool same = true;
        for (int f = 0; f < depth && same; ++f)
            same = site.frames[f] == frames[f];
        if (same) {
            ++site.count;
            return;
        }
    }
    if (g_numSites < kMaxSites) {
        AllocSite& site = g_sites[g_numSites++];
        site.depth = depth;
        site.count = 1;
        for (int f = 0; f < depth; ++f)
            site.frames[f] = frames[f];
    }
#endif
}

void
dumpSites()
{
#ifdef INVISIFENCE_HAVE_BACKTRACE
    for (int s = 0; s < g_numSites; ++s) {
        AllocSite& site = g_sites[s];
        std::fprintf(stderr, "alloc site %d (%llu allocations):\n", s,
                     static_cast<unsigned long long>(site.count));
        char** symbols = backtrace_symbols(site.frames, site.depth);
        for (int f = 0; f < site.depth; ++f)
            std::fprintf(stderr, "    %s\n",
                         symbols ? symbols[f] : "?");
        std::free(symbols);
    }
#endif
}

} // namespace

// GCC's mismatched-new-delete heuristic cannot see that new and delete
// are replaced as a pair here.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void*
operator new(std::size_t size)
{
    ++g_allocCount;
    if (g_captureSites)
        recordSite();
    if (void* p = std::malloc(size)) {
#ifdef INVISIFENCE_HAVE_USABLE_SIZE
        g_liveBytes += malloc_usable_size(p);
#endif
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void* p) noexcept
{
#ifdef INVISIFENCE_HAVE_USABLE_SIZE
    if (p != nullptr)
        g_liveBytes -= malloc_usable_size(p);
#endif
    std::free(p);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void
operator delete[](void* p, std::size_t) noexcept
{
    ::operator delete(p);
}

#pragma GCC diagnostic pop

namespace invisifence {
namespace {

using test::allImplKinds;
using test::expectIdenticalResults;

/**
 * A small-footprint sharing-heavy workload whose full working set fits
 * the small system's caches, so the warmup window really does converge
 * (every block the run will ever touch gets its functional-memory and
 * directory entries populated before measurement starts).
 */
SyntheticParams
smallParams()
{
    SyntheticParams p;
    p.privateBlocks = 24;
    p.sharedBlocks = 16;
    p.numLocks = 3;
    p.lockDataBlocks = 2;
    p.lockPer64k = 2000;     // heavy locking: plenty of Inv traffic
    p.atomicPer64k = 400;
    p.fencePer64k = 400;
    return p;
}

/** Pre-touch every block the workload can address, so first-touch
 *  functional-memory inserts happen before the measured window. */
void
touchFootprint(System& sys, const SyntheticParams& p)
{
    FunctionalMemory& mem = sys.memory();
    const auto touch_range = [&](Addr base, std::uint32_t blocks) {
        for (std::uint32_t b = 0; b < blocks; ++b)
            mem.writeWord(base + static_cast<Addr>(b) * kBlockBytes, 0);
    };
    for (std::uint32_t t = 0; t < sys.numCores(); ++t)
        touch_range(kPrivateRegion + t * kPrivateStride, p.privateBlocks);
    touch_range(kSharedRegion, p.sharedBlocks);
    for (std::uint32_t l = 0; l < p.numLocks; ++l) {
        touch_range(lockAddr(l), 1);
        touch_range(kLockDataRegion +
                        static_cast<Addr>(l) * p.lockDataBlocks *
                            kBlockBytes,
                    p.lockDataBlocks);
    }
}

TEST(SteadyStateAllocs, ZeroPerCycleAcrossAllImplKinds)
{
    const SyntheticParams params = smallParams();
    for (const ImplKind kind : allImplKinds()) {
        SCOPED_TRACE(implKindName(kind));
        SystemParams sp = SystemParams::small(4);
        std::vector<std::unique_ptr<ThreadProgram>> programs;
        for (std::uint32_t t = 0; t < sp.numCores; ++t) {
            programs.push_back(
                std::make_unique<SyntheticProgram>(params, t, 7));
        }
        System sys(sp, std::move(programs), kind);
        warmSystem(sys, params);
        touchFootprint(sys, params);

        // Warmup: long enough for every pool (events, MSHRs, directory
        // transaction nodes, scratch buffers, ring capacities) to reach
        // its high-water mark and for the eviction/abort machinery to
        // have fired.
        sys.run(200000);

        const std::uint64_t before = g_allocCount;
        g_numSites = 0;
        g_captureSites = true;
        sys.run(8000);
        g_captureSites = false;
        const std::uint64_t after = g_allocCount;

        if (after != before)
            dumpSites();
        EXPECT_EQ(after - before, 0u)
            << (after - before) << " heap allocations in an 8000-cycle "
            << "steady-state window under " << implKindName(kind);
    }
}

TEST(SteadyStateAllocs, ZeroPerCycleWithFaultInjectionEnabled)
{
    // The fault machinery rides the hottest paths in the simulator: the
    // injector decides every Network::send, retry timers arm on every
    // request, the directory tags a dedup record per completed
    // transaction, and the watchdog check runs once per loop iteration.
    // All of it must be allocation-free at steady state. The dedup ring
    // is shrunk so it wraps (and its RecyclingMap pool warms) inside
    // the warmup window; production capacity only delays the wrap.
    const SyntheticParams params = smallParams();
    for (const ImplKind kind : {ImplKind::ConvSC, ImplKind::Continuous}) {
        SCOPED_TRACE(implKindName(kind));
        SystemParams sp = SystemParams::small(4);
        sp.fault.seed = 11;
        sp.fault.dropPer64k = 1000;
        sp.fault.delayPer64k = 4000;
        sp.fault.dupPer64k = 1000;
        sp.agent.retryTimeout = 1000;
        sp.agent.retryBackoffCap = 16000;
        sp.dir.dedupCapacity = 256;
        sp.watchdog = 150000;
        std::vector<std::unique_ptr<ThreadProgram>> programs;
        for (std::uint32_t t = 0; t < sp.numCores; ++t) {
            programs.push_back(
                std::make_unique<SyntheticProgram>(params, t, 7));
        }
        System sys(sp, std::move(programs), kind);
        warmSystem(sys, params);
        touchFootprint(sys, params);
        sys.run(200000);

        const std::uint64_t before = g_allocCount;
        g_numSites = 0;
        g_captureSites = true;
        sys.run(8000);
        g_captureSites = false;
        const std::uint64_t after = g_allocCount;

        if (after != before)
            dumpSites();
        EXPECT_EQ(after - before, 0u)
            << (after - before) << " heap allocations in an 8000-cycle "
            << "faults-enabled window under " << implKindName(kind);
    }
}

TEST(SteadyStateAllocs, ZeroPerCycleAt64And256Cores)
{
    // The scale work (SharerSet entries, sharded wake tracking, the
    // derived torus) must not reintroduce per-cycle heap traffic at the
    // machine sizes it enables. One conventional and one speculative
    // kind keep the runtime bounded; the 4-core test above already
    // sweeps all ten, locks included. Locks are deliberately absent
    // here: hundreds of cores spinning on a shared lock set ever-deeper
    // waiter-chain depth records (each one pool-growth allocation) for
    // millions of cycles — a statistical tail of the workload, not a
    // per-cycle path. The wide read-shared footprint below still drives
    // multi-word SharerSet fan-out, the sharded wake tracking, and
    // cross-torus traffic, which are the paths this test pins.
    SyntheticParams params = smallParams();
    params.sharedBlocks = 64;
    params.numLocks = 0;
    params.lockPer64k = 0;
    params.atomicPer64k = 0;
    for (const std::uint32_t cores : {64u, 256u}) {
        for (const ImplKind kind :
             {ImplKind::ConvTSO, ImplKind::Continuous}) {
            SCOPED_TRACE(std::to_string(cores) + " cores, " +
                         implKindName(kind));
            SystemParams sp = SystemParams::small(cores);
            std::vector<std::unique_ptr<ThreadProgram>> programs;
            for (std::uint32_t t = 0; t < sp.numCores; ++t) {
                programs.push_back(
                    std::make_unique<SyntheticProgram>(params, t, 7));
            }
            System sys(sp, std::move(programs), kind);
            warmSystem(sys, params);
            touchFootprint(sys, params);
            // Pool high-water marks converge slowly on the big machines
            // (more in-flight messages, waiters, and queued directory
            // requests can coexist, and each new concurrency record is
            // one pool growth): warm in chunks and demand a measured
            // 3000-cycle window with zero allocations. A residual
            // high-water record may fall in a warmup chunk — that is
            // amortized pool growth, not per-cycle traffic — but a
            // regression to per-cycle allocation dirties every window
            // and fails all rounds.
            bool clean_window = false;
            for (int round = 0; round < 12 && !clean_window; ++round) {
                sys.run(200000);
                const std::uint64_t before = g_allocCount;
                g_numSites = 0;
                g_captureSites = true;
                sys.run(3000);
                g_captureSites = false;
                clean_window = g_allocCount == before;
            }
            if (!clean_window)
                dumpSites();
            EXPECT_TRUE(clean_window)
                << "no allocation-free 3000-cycle steady-state window "
                << "in 2.4M post-warmup cycles at " << cores
                << " cores under " << implKindName(kind);
        }
    }
}

// ---------------------------------------------------------------------
// Host-memory budget of a built and warmed scale machine.
// ---------------------------------------------------------------------

/** Bytes per directory-table slot: an 8-byte key and a DirEntry (state,
 *  SharerSet, owner and grant tag; the same layout as EntryView, whose
 *  padding the grant tag fills). */
constexpr std::size_t kDirSlotBytes =
    sizeof(Addr) + sizeof(DirectorySlice::EntryView);

/** Everything but the cache lanes and directory tables (cores, ROB and
 *  store-buffer rings, MSHRs, event and message slabs, the network,
 *  stat names), per core. */
constexpr std::size_t kSlackPerCore = 160 * 1024;

/**
 * Build and warm the fig13 scale machine (ZipfKV under Invisi_sc,
 * hashed homes, 512 KiB L2) at @p cores cores and check its live heap
 * against a budget summed from the lanes the model needs: per agent,
 * the L1 and L2 tag and data lanes plus the L1's speculative lanes
 * (handle generation, two speculative index lists with positions, the
 * flash scratch); per slice, a directory table at load at least 1/4
 * (reserve rounds 2 x entries up to a power of two) over the blocks the
 * warm start homes; plus kSlackPerCore. A lane allocated where the
 * model never uses it, or a table sized beyond the warm set, fails
 * here rather than only in a benchmark row.
 */
void
expectHostMemoryWithinBudget(std::uint32_t cores)
{
#ifndef INVISIFENCE_HAVE_USABLE_SIZE
    GTEST_SKIP() << "live-byte accounting needs malloc_usable_size";
#endif
    SystemParams sp = SystemParams::bench();
    sp.numCores = cores;
    sp.dirHashHome = true;
    sp.agent.l2Size = 512 * 1024;
    sp.net.dimX = 0;
    sp.net.dimY = 0;
    const Workload& wl = workloadByName("ZipfKV");
    const SyntheticParams& p = wl.params;

    const std::size_t l1_frames = sp.agent.l1Size / kBlockBytes;
    const std::size_t l2_frames = sp.agent.l2Size / kBlockBytes;
    const std::size_t line_bytes = sizeof(CacheTag) + sizeof(BlockData);
    const std::size_t spec_bytes =
        sizeof(std::uint32_t) * (1 + 2 * kMaxCheckpoints + 1);
    const std::size_t cache_bytes =
        cores * (l1_frames * (line_bytes + spec_bytes) +
                 l2_frames * line_bytes);
    // The warm set, as warmSystem primes it.
    const std::size_t locks =
        std::min<std::size_t>(p.numLocks, l2_frames / 16);
    const std::size_t warm_blocks =
        cores * std::min<std::size_t>(p.privateBlocks, l2_frames / 2) +
        std::min<std::size_t>(p.sharedBlocks, l2_frames / 4) + locks +
        locks * p.lockDataBlocks;
    const std::size_t dir_bytes = 4 * warm_blocks * kDirSlotBytes;
    const std::size_t budget =
        cache_bytes + dir_bytes + cores * kSlackPerCore;

    const std::size_t live0 = g_liveBytes;
    std::vector<std::unique_ptr<ThreadProgram>> programs;
    for (std::uint32_t t = 0; t < cores; ++t)
        programs.push_back(std::make_unique<SyntheticProgram>(p, t, 1));
    System sys(sp, std::move(programs), ImplKind::InvisiSC);
    warmSystem(sys, p);
    const std::size_t used = g_liveBytes - live0;
    EXPECT_LE(used, budget)
        << "live heap " << used << " B over budget: lanes " << cache_bytes
        << " + directory " << dir_bytes << " + slack "
        << cores * kSlackPerCore;
}

TEST(HostMemory, ScaleMachineAt64CoresStaysWithinLaneBudget)
{
    expectHostMemoryWithinBudget(64);
}

TEST(HostMemoryStress, ScaleMachineAt256CoresStaysWithinLaneBudget)
{
    expectHostMemoryWithinBudget(256);
}

// ---------------------------------------------------------------------
// Pooled event path equivalence: kinds x seeds x workloads.
// ---------------------------------------------------------------------

RunConfig
eqConfig(std::uint64_t seed, int fast_forward)
{
    RunConfig cfg;
    cfg.warmupCycles = 300;
    cfg.measureCycles = 1800;
    cfg.seed = seed;
    cfg.system = SystemParams::small(4);
    cfg.system.fastForward = fast_forward;
    return cfg;
}

TEST(PooledEvents, BitIdenticalAcrossKindsSeedsAndWorkloads)
{
    for (const Workload& wl : workloadSuite()) {
        for (const ImplKind kind : allImplKinds()) {
            for (const std::uint64_t seed : {3ull, 91ull}) {
                SCOPED_TRACE(wl.name + "/" + implKindName(kind) +
                             "/seed=" + std::to_string(seed));
                const RunResult off =
                    runExperiment(wl, kind, eqConfig(seed, 0));
                const RunResult on =
                    runExperiment(wl, kind, eqConfig(seed, 1));
                expectIdenticalResults(off, on);
            }
        }
    }
}

} // namespace
} // namespace invisifence
