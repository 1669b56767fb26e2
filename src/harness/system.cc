#include "harness/system.hh"

#include <algorithm>
#include "sim/annotations.hh"
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/invisifence.hh"
#include "harness/runner.hh"
#include "sim/log.hh"

namespace invisifence {

namespace {

/**
 * INVISIFENCE_FASTFWD, parsed once per process (thread-safe magic
 * static, so sweep workers never touch getenv): default on, "0" =
 * legacy per-cycle loop. Anything else is a configuration error.
 */
bool
fastForwardEnvDefault()
{
    static const bool on = [] {
        const char* text = std::getenv("INVISIFENCE_FASTFWD");
        if (!text || std::strcmp(text, "1") == 0)
            return true;
        if (std::strcmp(text, "0") == 0)
            return false;
        IF_FATAL("INVISIFENCE_FASTFWD='%s' must be 0 or 1", text);
    }();
    return on;
}

} // namespace

const char*
implKindName(ImplKind k)
{
    switch (k) {
      case ImplKind::ConvSC: return "sc";
      case ImplKind::ConvTSO: return "tso";
      case ImplKind::ConvRMO: return "rmo";
      case ImplKind::InvisiSC: return "Invisi_sc";
      case ImplKind::InvisiTSO: return "Invisi_tso";
      case ImplKind::InvisiRMO: return "Invisi_rmo";
      case ImplKind::InvisiSC2Ckpt: return "Invisi_sc-2ckpt";
      case ImplKind::Continuous: return "Invisi_cont";
      case ImplKind::ContinuousCoV: return "Invisi_cont_CoV";
      case ImplKind::Aso: return "ASOsc";
    }
    return "?";
}

SystemParams
SystemParams::paper()
{
    SystemParams p;
    p.agent.l2Size = 8 * 1024 * 1024;
    return p;
}

SystemParams
SystemParams::bench()
{
    SystemParams p;
    p.agent.l2Size = 2 * 1024 * 1024;
    // Gentler interconnect than the paper's board-level 25 ns/hop so
    // synthetic workloads land in a plausible IPC regime; the ordering
    // mechanisms under study are latency-shape invariant.
    p.net.perHopLatency = 30;
    return p;
}

SystemParams
SystemParams::small(std::uint32_t cores)
{
    SystemParams p;
    p.numCores = cores;
    p.net.dimX = cores;
    p.net.dimY = 1;
    p.agent.l1Size = 4 * 1024;
    p.agent.l2Size = 64 * 1024;
    p.net.perHopLatency = 20;
    p.dir.memLatency = 40;
    // Unit tests observe ordering stalls directly; store prefetching
    // would hide the misses they rely on.
    p.core.storePrefetch = false;
    return p;
}

std::unique_ptr<ConsistencyImpl>
makeImpl(ImplKind kind, const SystemParams& params, Core& core,
         CacheAgent& agent)
{
    const auto speculative = [&](SpecConfig cfg) {
        if (params.specSbEntries != 0 && !cfg.unboundedSb)
            cfg.sbEntries = params.specSbEntries;
        cfg.minChunkSize = params.minChunkSize;
        cfg.covTimeout = params.covTimeout;
        if (params.specFootprintCap != 0)
            cfg.specFootprintCap = params.specFootprintCap;
        return std::make_unique<SpeculativeImpl>(cfg, core, agent);
    };
    switch (kind) {
      case ImplKind::ConvSC:
        return makeConventional(Model::SC, core, agent);
      case ImplKind::ConvTSO:
        return makeConventional(Model::TSO, core, agent);
      case ImplKind::ConvRMO:
        return makeConventional(Model::RMO, core, agent);
      case ImplKind::InvisiSC: {
        SpecConfig c = SpecConfig::selective(Model::SC);
        c.commitOnViolate = params.selectiveCov;
        return speculative(c);
      }
      case ImplKind::InvisiTSO: {
        SpecConfig c = SpecConfig::selective(Model::TSO);
        c.commitOnViolate = params.selectiveCov;
        return speculative(c);
      }
      case ImplKind::InvisiRMO: {
        SpecConfig c = SpecConfig::selective(Model::RMO);
        c.commitOnViolate = params.selectiveCov;
        return speculative(c);
      }
      case ImplKind::InvisiSC2Ckpt: {
        // Section 6.6 applies commit-on-violate uniformly to every
        // selective variant; the two-checkpoint one is no exception.
        SpecConfig c = SpecConfig::selective(Model::SC, 2);
        c.commitOnViolate = params.selectiveCov;
        return speculative(c);
      }
      case ImplKind::Continuous:
        return speculative(SpecConfig::continuousMode(false));
      case ImplKind::ContinuousCoV:
        return speculative(SpecConfig::continuousMode(true));
      case ImplKind::Aso:
        return speculative(SpecConfig::aso());
    }
    return nullptr;
}

System::System(const SystemParams& params,
               std::vector<std::unique_ptr<ThreadProgram>> programs,
               ImplKind kind)
    : params_(params), kind_(kind),
      homeMap_(params.numCores, params.dirHashHome),
      net_(eq_, params.net, params.numCores),
      programs_(std::move(programs)),
      fastForward_(params.fastForward < 0 ? fastForwardEnvDefault()
                                          : params.fastForward != 0)
{
    if (params_.numCores == 0 ||
        params_.numCores > SharerSet::kMaxNodes) {
        IF_FATAL("numCores=%u outside [1, %u]", params_.numCores,
                 SharerSet::kMaxNodes);
    }
    if (programs_.size() != params_.numCores) {
        IF_FATAL("system needs %u programs, got %zu", params_.numCores,
                 programs_.size());
    }
    // Fault tolerance is derived, not set per component: an active
    // injection plan or a request-retry timeout switches BOTH the
    // agents (retry/orphan handling) and the directory slices (dedup,
    // owner-self recovery) together — a retrying agent against a strict
    // directory would trip the directory's protocol panics. Must happen
    // before the construction loops below copy params_.agent/.dir.
    if (params_.fault.any() || params_.agent.retryTimeout != 0) {
        params_.agent.faultTolerant = true;
        params_.dir.faultTolerant = true;
    }
    for (NodeId n = 0; n < params_.numCores; ++n) {
        dirs_.push_back(std::make_unique<DirectorySlice>(
            n, homeMap_, net_, eq_, mem_, params_.dir));
        agents_.push_back(std::make_unique<CacheAgent>(
            n, homeMap_, net_, eq_, params_.agent));
    }
    // Retry-record chunks, 8 per core (~0.9 KB each, ~115 KB at 16
    // cores). Every local fill and refused-fill retry waits in a chunk
    // of a retry batch; figure runs peak at 5-23 chunks per core, so
    // allocating 8 here, next to the agents, moves most of that growth
    // out of the run. The slab still grows on demand past it.
    eq_.reserveRetryChunks(params_.numCores * 8);
    for (NodeId n = 0; n < params_.numCores; ++n) {
        cores_.push_back(std::make_unique<Core>(n, params_.core,
                                                *agents_[n],
                                                *programs_[n]));
        impls_.push_back(makeImpl(kind, params_, *cores_[n],
                                  *agents_[n]));
        cores_[n]->setConsistency(impls_[n].get());
        const std::string prefix = "core" + std::to_string(n);
        cores_[n]->registerStats(stats_, prefix);
        if (auto* spec = dynamic_cast<SpeculativeImpl*>(impls_[n].get()))
            spec->registerStats(stats_, prefix + ".spec");
        agents_[n]->registerStats(stats_, prefix + ".agent");
        dirs_[n]->registerStats(stats_, prefix + ".dir");
    }
    stats_.registerStat("system.fastfwd.cycles", &statFastForwardedCycles);
    stats_.registerStat("system.fastfwd.jumps", &statFastForwards);
    stats_.registerStat("system.fastfwd.shard_skips", &statShardSkips);
    if (params_.fault.any()) {
        faults_ = std::make_unique<FaultInjector>(params_.fault,
                                                  params_.numCores, eq_);
        net_.setFaultInjector(faults_.get());
        stats_.registerStat("system.fault.drops", &faults_->statDrops);
        stats_.registerStat("system.fault.dups", &faults_->statDups);
        stats_.registerStat("system.fault.delays", &faults_->statDelays);
        stats_.registerStat("system.fault.delay_cycles",
                            &faults_->statDelayCycles);
    }
    wdThreshold_ = params_.watchdog;
    maxCyclesCap_ = benchEnv().maxCycles;
    wakeAt_.assign(params_.numCores, 0);
    lastTicked_.assign(params_.numCores, 0);
    shardWake_.assign((params_.numCores + kShardSize - 1) / kShardSize, 0);
    eq_.setWakeHook(
        [](void* ctx, std::uint32_t node, Cycle when) {
            static_cast<System*>(ctx)->onEventWake(node, when);
        },
        this);
}

void
System::setFastForward(bool on)
{
    // Turning fast-forward on after a stretch of per-cycle ticking must
    // not trust stale dormancy info: wake everything for the next cycle
    // (spurious ticks are harmless; missed ones are not).
    if (on && !fastForward_) {
        std::fill(wakeAt_.begin(), wakeAt_.end(), Cycle{0});
        std::fill(shardWake_.begin(), shardWake_.end(), Cycle{0});
    }
    fastForward_ = on;
}

void
System::recomputeShardWake(std::uint32_t shard)
{
    const std::uint32_t lo = shard << kShardShift;
    const std::uint32_t hi =
        std::min<std::uint32_t>(lo + kShardSize, params_.numCores);
    Cycle min = kNeverCycle;
    for (std::uint32_t i = lo; i < hi; ++i) {
        if (wakeAt_[i] < min)
            min = wakeAt_[i];
    }
    shardWake_[shard] = min;
}

void
System::settleCore(std::uint32_t i, Cycle upto)
{
    if (upto <= lastTicked_[i])
        return;
    const std::uint64_t n = upto - lastTicked_[i];
    cores_[i]->accrueStallCycles(n);
    cores_[i]->syncTime(upto);
    lastTicked_[i] = upto;
    statFastForwardedCycles += n;
}

void
System::settleAll(Cycle upto)
{
    for (std::uint32_t i = 0; i < cores_.size(); ++i)
        settleCore(i, upto);
}

void
System::onEventWake(std::uint32_t node, Cycle when)
{
    // Settle the dormant core's accounting BEFORE the event mutates its
    // state (an abort reclassifies pending cycles; the per-cycle loop
    // would have accrued them under the pre-event stall kind), and make
    // it tick this cycle, as it would have in the per-cycle loop.
    if (!fastForward_)
        return;
    IF_DBG_ASSERT(node < cores_.size());
    if (when > 0)
        settleCore(node, when - 1);
    if (wakeAt_[node] > when)
        wakeAt_[node] = when;
    const std::uint32_t shard = node >> kShardShift;
    if (shardWake_[shard] > when)
        shardWake_[shard] = when;
}

void
System::tickCores(Cycle now)
{
    IF_HOT;
    const std::uint32_t shards =
        static_cast<std::uint32_t>(shardWake_.size());
    for (std::uint32_t s = 0; s < shards; ++s) {
        if (fastForward_ && shardWake_[s] > now) {
            // Every member is dormant: one compare instead of a walk
            // over the shard's cores.
            ++statShardSkips;
            continue;
        }
        const std::uint32_t lo = s << kShardShift;
        const std::uint32_t hi = std::min<std::uint32_t>(
            lo + kShardSize, static_cast<std::uint32_t>(cores_.size()));
        for (std::uint32_t i = lo; i < hi; ++i) {
            if (fastForward_ && wakeAt_[i] > now)
                continue;   // dormant: nothing but stall accounting
            settleCore(i, now - 1);
            Core& core = *cores_[i];
            const std::uint64_t version = core.workVersion();
            const std::uint64_t scheduled = eq_.scheduledCount();
            core.tick(now);
            lastTicked_[i] = now;
            if (!fastForward_)
                continue;
            // A tick that changed no state and scheduled nothing would
            // only repeat the same stall accounting next cycle: sleep
            // until the core's own time threshold or an event wake.
            if (core.workVersion() != version ||
                eq_.scheduledCount() != scheduled) {
                wakeAt_[i] = now + 1;
                continue;
            }
            const Cycle at = core.nextWorkAt();
            wakeAt_[i] = at <= now ? now + 1 : at;
        }
        if (fastForward_)
            recomputeShardWake(s);
    }
}

void
System::maybeJump(Cycle end)
{
    IF_HOT;
    if (!fastForward_)
        return;
    Cycle next = kNeverCycle;
    for (const Cycle at : shardWake_) {
        if (at < next)
            next = at;
    }
    if (!eq_.empty() && eq_.nextEventTick() < next)
        next = eq_.nextEventTick();
    if (next <= now_ + 1)
        return;
    Cycle target = next - 1 < end ? next - 1 : end;
    // The watchdog must get a chance to observe the stall: never jump
    // past the cycle where the no-progress threshold would trip. (A
    // wedged system has a drained queue and all-dormant cores, so
    // without this cap the jump would sail straight to `end`.)
    if (wdThreshold_ != 0 && target > wdLastProgress_ + wdThreshold_)
        target = wdLastProgress_ + wdThreshold_;
    if (target <= now_)
        return;
    // Core accounting is settled lazily on wake; only the clocks move.
    now_ = target;
    eq_.advanceTo(now_);   // no events <= target: just syncs eq time
    ++statFastForwards;
}

void
System::run(Cycle cycles)
{
    IF_HOT;
    const Cycle end = now_ + cycles;
    while (now_ < end) {
        ++now_;
        eq_.advanceTo(now_);
        tickCores(now_);
        if (wdThreshold_ != 0) [[unlikely]]
            checkWatchdog();
        maybeJump(end);
    }
    settleAll(end);
}

bool
System::runUntilDone(Cycle max_cycles)
{
    IF_HOT;
    Cycle end = now_ + max_cycles;
    // INVISIFENCE_MAX_CYCLES is an absolute hard budget on the global
    // clock: exhausting it is a fatal runaway diagnosis (a CI backstop
    // against silent multi-hour hangs), not a quiet `false` return.
    const Cycle cap = maxCyclesCap_;
    const bool capped = cap != 0 && cap < end;
    if (capped)
        end = cap;
    while (now_ < end) {
        ++now_;
        eq_.advanceTo(now_);
        tickCores(now_);
        bool all_done = true;
        for (const auto& core : cores_)
            all_done &= core->done();
        // Completion additionally requires a drained event queue:
        // coherence traffic scheduled after the last core quiesced
        // (writebacks, acks) must land before stats are sampled, or a
        // follow-up run() would replay stale in-flight messages.
        if (all_done && eq_.empty()) {
            settleAll(now_);
            return true;
        }
        if (wdThreshold_ != 0) [[unlikely]]
            checkWatchdog();
        maybeJump(end);
    }
    settleAll(end);
    if (capped) {
        IF_FATAL("INVISIFENCE_MAX_CYCLES=%llu exhausted with work still "
                 "pending (requested budget was %llu cycles)",
                 static_cast<unsigned long long>(cap),
                 static_cast<unsigned long long>(max_cycles));
    }
    return false;
}

void
System::checkWatchdog()
{
    // Any protocol step, event, or instruction commit moves this sum;
    // scheduled/executed counters are monotonic, so a quiet system
    // holds it exactly still (no ABA).
    const std::uint64_t sig =
        eq_.scheduledCount() + eq_.executedCount() + totalRetired();
    if (sig != wdLastSig_) {
        wdLastSig_ = sig;
        wdLastProgress_ = now_;
        return;
    }
    if (now_ - wdLastProgress_ <= wdThreshold_)
        return;
    bool all_done = true;
    for (const auto& core : cores_)
        all_done &= core->done();
    if (all_done && eq_.empty()) {
        // Quiet because finished, not stuck: run(cycles) legitimately
        // idles out its remaining budget after programs halt.
        wdLastProgress_ = now_;
        return;
    }
    watchdogFire();
}

void
System::watchdogFire()
{
    IF_COLD_ALLOC("fatal-path diagnostic dump: stdio formatting may "
                  "allocate; the process exits immediately after");
    std::fprintf(stderr,
                 "=== LIVENESS WATCHDOG: no progress for %llu cycles "
                 "(now=%llu, last progress at %llu) ===\n",
                 static_cast<unsigned long long>(now_ - wdLastProgress_),
                 static_cast<unsigned long long>(now_),
                 static_cast<unsigned long long>(wdLastProgress_));
    for (std::uint32_t i = 0; i < params_.numCores; ++i) {
        std::fprintf(stderr,
                     "  core%u done=%d retired=%llu wakeAt=%llu "
                     "nextWorkAt=%llu\n",
                     i, cores_[i]->done() ? 1 : 0,
                     static_cast<unsigned long long>(cores_[i]->statRetired),
                     static_cast<unsigned long long>(wakeAt_[i]),
                     static_cast<unsigned long long>(cores_[i]->nextWorkAt()));
        impls_[i]->dumpLiveness(stderr);
        agents_[i]->mshrs().forEachLive([&](const Mshr& m) {
            std::fprintf(stderr,
                         "  agent%u mshr blk=%llx kind=%s wantWrite=%d "
                         "issuedWrite=%d txn=%u retries=%u\n",
                         i, static_cast<unsigned long long>(m.blockAddr),
                         m.kind == Mshr::Kind::Fetch ? "fetch" : "wb",
                         m.wantWrite ? 1 : 0, m.issuedWrite ? 1 : 0,
                         m.txnId, m.retryAttempt);
        });
    }
    for (std::uint32_t i = 0; i < params_.numCores; ++i)
        dirs_[i]->dumpTransients(stderr);
    IF_FATAL("liveness watchdog fired at cycle %llu: the system is "
             "wedged (see transaction dump above)",
             static_cast<unsigned long long>(now_));
}

Breakdown
System::totalBreakdown() const
{
    Breakdown b;
    for (const auto& core : cores_)
        b.merge(core->breakdown());
    // Include cycles still pending inside active speculations so that
    // every elapsed cycle is accounted somewhere at sampling time.
    for (const auto& impl : impls_) {
        if (const auto* spec =
                dynamic_cast<const SpeculativeImpl*>(impl.get())) {
            b.merge(spec->pendingBreakdown());
        }
    }
    return b;
}

std::uint64_t
System::totalRetired() const
{
    std::uint64_t n = 0;
    for (const auto& core : cores_)
        n += core->statRetired;
    return n;
}

std::uint64_t
System::totalSpeculatingCycles() const
{
    std::uint64_t n = 0;
    for (const auto& impl : impls_) {
        if (const auto* spec =
                dynamic_cast<const SpeculativeImpl*>(impl.get())) {
            n += spec->statCyclesSpeculating;
        }
    }
    return n;
}

std::uint64_t
System::totalCoreCycles() const
{
    std::uint64_t n = 0;
    for (const auto& core : cores_)
        n += core->statCycles;
    return n;
}

std::uint64_t
System::totalMshrFullStalls() const
{
    std::uint64_t n = 0;
    for (const auto& agent : agents_)
        n += agent->mshrs().statFullStalls;
    return n;
}

std::uint64_t
System::totalDirStaleWritebacks() const
{
    std::uint64_t n = 0;
    for (const auto& dir : dirs_)
        n += dir->statStaleWritebacks;
    return n;
}

std::uint64_t
System::totalDirQueuedRequests() const
{
    std::uint64_t n = 0;
    for (const auto& dir : dirs_)
        n += dir->statQueuedRequests;
    return n;
}

} // namespace invisifence
