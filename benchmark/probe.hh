/**
 * @file
 * The one place ifbench reads simulator statistics.
 *
 * Every value comes from a public stat member or a public System total;
 * nothing here reaches into private state. A Counters is a cumulative
 * reading; ifbench takes one when the warm-up ends and one when the
 * measured window ends, and works with the difference.
 *
 * The Outcome is the modelled result of the measured window, the part
 * a host-side speed-up must leave bit-identical. Its first thirteen
 * fields are the ones runExperiment() reports in RunResult, computed the
 * same way; the last two are the network's message and hop counts.
 * Host-side counts (events executed, fast-forward jumps, shard skips,
 * allocations) are deliberately excluded: a faster scheduler may change
 * them without changing what was simulated.
 */

#ifndef IFBENCH_PROBE_HH
#define IFBENCH_PROBE_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/invisifence.hh"
#include "harness/runner.hh"
#include "harness/system.hh"

namespace ifbench {

/** Every statistic ifbench reads, system-wide (summed over nodes). */
enum class Stat : std::size_t
{
    // Outcome inputs, read exactly as runExperiment() reads them.
    Retired, AbortedRetired, CoreCycles,
    Busy, Other, SbFull, SbDrain, Violation,
    Speculating, Aborts, Commits,
    MshrFullStalls, DirStaleWritebacks, DirQueuedRequests,
    // coh.network
    NetMessages, NetDataMessages, NetHops,
    // sim and harness: host-side scheduling work
    Events, FfCycles, FfJumps, ShardSkips,
    // coh.agent
    FillsRemote, FillsLocal, L2Evictions, ExtServed, ExtDeferred,
    // coh.dir
    DirGetS, DirGetM, DirWritebacks, DirInvalidations,
    // cpu.core
    L1LoadHits, LoadMisses, Mispredicts, LqSquashes,
    // core.invisifence
    SpecRetired, CovDeferrals,
    kCount
};

/** Cumulative (or, after windowDelta, per-window) statistics. */
struct Counters
{
    std::array<std::uint64_t, static_cast<std::size_t>(Stat::kCount)> v{};

    std::uint64_t&
    operator[](Stat s)
    {
        return v[static_cast<std::size_t>(s)];
    }
    std::uint64_t
    operator[](Stat s) const
    {
        return v[static_cast<std::size_t>(s)];
    }
};

inline Counters
readCounters(invisifence::System& sys)
{
    Counters c;
    c[Stat::Retired] = sys.totalRetired();
    c[Stat::CoreCycles] = sys.totalCoreCycles();
    const invisifence::Breakdown b = sys.totalBreakdown();
    c[Stat::Busy] = b.busy;
    c[Stat::Other] = b.other;
    c[Stat::SbFull] = b.sbFull;
    c[Stat::SbDrain] = b.sbDrain;
    c[Stat::Violation] = b.violation;
    c[Stat::Speculating] = sys.totalSpeculatingCycles();
    c[Stat::MshrFullStalls] = sys.totalMshrFullStalls();
    c[Stat::DirStaleWritebacks] = sys.totalDirStaleWritebacks();
    c[Stat::DirQueuedRequests] = sys.totalDirQueuedRequests();
    c[Stat::NetMessages] = sys.network().statMessages;
    c[Stat::NetDataMessages] = sys.network().statDataMessages;
    c[Stat::NetHops] = sys.network().statTotalHops;
    c[Stat::Events] = sys.eventQueue().executedCount();
    c[Stat::FfCycles] = sys.statFastForwardedCycles;
    c[Stat::FfJumps] = sys.statFastForwards;
    c[Stat::ShardSkips] = sys.statShardSkips;
    for (std::uint32_t i = 0; i < sys.numCores(); ++i) {
        const invisifence::CacheAgent& a = sys.agent(i);
        c[Stat::FillsRemote] += a.statL1FillsRemote;
        c[Stat::FillsLocal] += a.statL1FillsLocal;
        c[Stat::L2Evictions] += a.statL2Evictions;
        c[Stat::ExtServed] += a.statExternalServed;
        c[Stat::ExtDeferred] += a.statExternalDeferred;
        const invisifence::DirectorySlice& d = sys.directory(i);
        c[Stat::DirGetS] += d.statGetS;
        c[Stat::DirGetM] += d.statGetM;
        c[Stat::DirWritebacks] += d.statWritebacks;
        c[Stat::DirInvalidations] += d.statInvalidationsSent;
        const invisifence::Core& core = sys.core(i);
        c[Stat::L1LoadHits] += core.statL1LoadHits;
        c[Stat::LoadMisses] += core.statLoadMisses;
        c[Stat::Mispredicts] += core.statMispredicts;
        c[Stat::LqSquashes] += core.statLqSquashes;
        if (const auto* spec =
                dynamic_cast<const invisifence::SpeculativeImpl*>(
                    &sys.impl(i))) {
            c[Stat::AbortedRetired] += spec->statAbortedRetired;
            c[Stat::Aborts] += spec->statAborts;
            c[Stat::Commits] += spec->statCommits;
            c[Stat::SpecRetired] += spec->statSpecRetired;
            c[Stat::CovDeferrals] += spec->statCovDeferrals;
        }
    }
    return c;
}

/** Window delta of a counter, clamped at 0 as runExperiment() clamps
 *  breakdown categories (an abort can reclassify in-flight cycles). */
inline std::uint64_t
delta(std::uint64_t after, std::uint64_t before)
{
    return after >= before ? after - before : 0;
}

inline Counters
windowDelta(const Counters& before, const Counters& after)
{
    Counters d;
    for (std::size_t i = 0; i < d.v.size(); ++i)
        d.v[i] = delta(after.v[i], before.v[i]);
    return d;
}

/** The modelled measured-window outcome a point is checked against. */
struct Outcome
{
    static constexpr std::size_t kFields = 15;
    static constexpr std::array<const char*, kFields> kNames = {
        "retired", "core_cycles", "busy", "other", "sb_full", "sb_drain",
        "violation", "speculating_cycles", "aborts", "commits",
        "mshr_full_stalls", "dir_stale_writebacks", "dir_queued_requests",
        "net_messages", "net_hops"};
    /** How many leading fields RunResult also carries. */
    static constexpr std::size_t kRunResultFields = 13;

    std::array<std::uint64_t, kFields> v{};

    /** Committed instructions in the window (the "retired" field). */
    std::uint64_t retired() const { return v[0]; }

    /** 64-bit FNV-1a over the fields' little-endian bytes, in order. */
    std::uint64_t
    digest() const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const std::uint64_t x : v) {
            for (int b = 0; b < 8; ++b) {
                h ^= (x >> (8 * b)) & 0xffu;
                h *= 0x100000001b3ull;
            }
        }
        return h;
    }
};

/** Committed instructions to date: retirements later discarded by an
 *  abort are re-executed, so runExperiment() subtracts them. */
inline std::uint64_t
committed(const Counters& c)
{
    return delta(c[Stat::Retired], c[Stat::AbortedRetired]);
}

inline Outcome
outcomeOf(const Counters& before, const Counters& after)
{
    const Counters d = windowDelta(before, after);
    Outcome o;
    o.v = {delta(committed(after), committed(before)),
           d[Stat::CoreCycles], d[Stat::Busy], d[Stat::Other],
           d[Stat::SbFull], d[Stat::SbDrain], d[Stat::Violation],
           d[Stat::Speculating], d[Stat::Aborts], d[Stat::Commits],
           d[Stat::MshrFullStalls], d[Stat::DirStaleWritebacks],
           d[Stat::DirQueuedRequests], d[Stat::NetMessages],
           d[Stat::NetHops]};
    return o;
}

/** The RunResult fields, in Outcome order (the first kRunResultFields). */
inline std::array<std::uint64_t, Outcome::kRunResultFields>
runResultFields(const invisifence::RunResult& r)
{
    return {r.retired, r.coreCycles, r.breakdown.busy, r.breakdown.other,
            r.breakdown.sbFull, r.breakdown.sbDrain, r.breakdown.violation,
            r.speculatingCycles, r.aborts, r.commits, r.mshrFullStalls,
            r.dirStaleWritebacks, r.dirQueuedRequests};
}

} // namespace ifbench

#endif // IFBENCH_PROBE_HH
