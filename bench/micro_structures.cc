/**
 * @file
 * google-benchmark microbenchmarks of the hot hardware structures: the
 * flash operations the paper's Figure 3 circuits implement in a single
 * cycle, store-buffer searches, cache lookups, and the event queue.
 */

#include <benchmark/benchmark.h>

#include "mem/cache_array.hh"
#include "mem/store_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

using namespace invisifence;

namespace {

/** Install @p a (victimizing if needed) and return its line. */
CacheArray::Line
installBlock(CacheArray& cache, Addr a)
{
    if (CacheArray::Line hit = cache.lookup(a))
        return hit;
    CacheArray::Line line = cache.findVictim(a);
    if (line.valid())
        line.invalidate();
    line.install(a, CoherenceState::Shared);
    cache.touch(line);
    return line;
}

/** Fill @p cache with 512 random valid blocks, plus block 0 (which the
 *  pinned-line shapes below probe). */
void
populate(CacheArray& cache)
{
    Rng rng(1);
    for (int i = 0; i < 512; ++i) {
        installBlock(cache,
                     static_cast<Addr>(rng.below(1024)) * kBlockBytes);
    }
    installBlock(cache, 0);
}

} // namespace

static void
BM_CacheLookup(benchmark::State& state)
{
    CacheArray cache(64 * 1024, 2, "bm", CacheLevel::L1);
    populate(cache);
    Addr probe = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(probe));
        probe = (probe + kBlockBytes) & 0xffff;
    }
}
BENCHMARK(BM_CacheLookup);

/** The protocol-step shape the MRU way predictor targets: repeated
 *  same-block lookups resolve on the first predicted tag. */
static void
BM_CacheLookupSameBlock(benchmark::State& state)
{
    CacheArray cache(64 * 1024, 2, "bm", CacheLevel::L1);
    populate(cache);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.lookup(0));
}
BENCHMARK(BM_CacheLookupSameBlock);

/** O(1) revalidation of a generation-stamped handle vs a fresh scan. */
static void
BM_CacheHandleResolve(benchmark::State& state)
{
    CacheArray cache(64 * 1024, 2, "bm", CacheLevel::L1);
    populate(cache);
    const CacheArray::Handle h = cache.lookup(0).handle();
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.resolve(h));
}
BENCHMARK(BM_CacheHandleResolve);

/** Commit with no marked lines: O(marked) means near-free. */
static void
BM_FlashClearSpecBits(benchmark::State& state)
{
    CacheArray cache(64 * 1024, 2, "bm", CacheLevel::L1);
    populate(cache);
    for (auto _ : state)
        cache.flashClearSpecBits(0);
}
BENCHMARK(BM_FlashClearSpecBits);

/** Commit with a realistic speculative footprint: mark N lines, flash
 *  them, per iteration — the cost the per-checkpoint path actually
 *  pays (plus the marking itself). */
static void
BM_FlashClearSpecBitsMarked(benchmark::State& state)
{
    CacheArray cache(64 * 1024, 2, "bm", CacheLevel::L1);
    populate(cache);
    const std::uint32_t marked =
        static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        for (std::uint32_t i = 0; i < marked; ++i) {
            CacheArray::Line line =
                cache.lookup(static_cast<Addr>(i) * kBlockBytes);
            if (!line) {
                line = cache.findVictim(static_cast<Addr>(i) *
                                        kBlockBytes);
                if (line.valid())
                    line.invalidate();
                line.install(static_cast<Addr>(i) * kBlockBytes,
                             CoherenceState::Shared);
            }
            line.setSpecRead(0);
        }
        cache.flashClearSpecBits(0);
    }
}
BENCHMARK(BM_FlashClearSpecBitsMarked)->Arg(8)->Arg(64);

static void
BM_FlashInvalidateSpecWritten(benchmark::State& state)
{
    CacheArray cache(64 * 1024, 2, "bm", CacheLevel::L1);
    populate(cache);
    for (auto _ : state)
        cache.flashInvalidateSpecWritten(0);
}
BENCHMARK(BM_FlashInvalidateSpecWritten);

static void
BM_FifoSbForward(benchmark::State& state)
{
    FifoStoreBuffer sb(64);
    for (InstSeq i = 0; i < 64; ++i)
        sb.push(static_cast<Addr>(i % 48) * 8, i, i);
    Addr probe = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sb.forward(probe));
        probe = (probe + 8) % 512;
    }
}
BENCHMARK(BM_FifoSbForward);

static void
BM_CoalescingSbGather(benchmark::State& state)
{
    CoalescingStoreBuffer sb(8);
    for (InstSeq i = 0; i < 8; ++i)
        sb.store(static_cast<Addr>(i) * kBlockBytes, 8, i, false,
                 kNonSpecCtx);
    Addr probe = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sb.gatherBlock(probe));
        probe = (probe + kBlockBytes) % (8 * kBlockBytes);
    }
}
BENCHMARK(BM_CoalescingSbGather);

static void
BM_EventQueueScheduleRun(benchmark::State& state)
{
    EventQueue eq;
    Cycle t = 0;
    for (auto _ : state) {
        for (int i = 0; i < 8; ++i)
            eq.schedule(static_cast<Cycle>(1 + i % 5), []() {});
        t += 8;
        eq.advanceTo(t);
    }
}
BENCHMARK(BM_EventQueueScheduleRun);

BENCHMARK_MAIN();
