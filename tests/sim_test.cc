/** @file Unit tests for the simulation kernel (event queue, RNG, stats). */

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

using namespace invisifence;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&]() { order.push_back(3); });
    eq.scheduleAt(10, [&]() { order.push_back(1); });
    eq.scheduleAt(20, [&]() { order.push_back(2); });
    eq.advanceTo(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, SameTickPreservesInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.scheduleAt(5, [&order, i]() { order.push_back(i); });
    eq.advanceTo(5);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, AdvanceStopsAtRequestedTick)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(10, [&]() { ++fired; });
    eq.scheduleAt(11, [&]() { ++fired; });
    eq.advanceTo(10);
    EXPECT_EQ(fired, 1);
    eq.advanceTo(11);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsScheduledDuringExecutionRun)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(5, [&]() {
        eq.schedule(0, [&]() { ++fired; });   // lands at tick 5 too
        eq.schedule(100, [&]() { ++fired; });
    });
    eq.advanceTo(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.nextEventTick(), 105u);
}

TEST(EventQueue, SameTickInsertionOrderAcrossScheduleSites)
{
    // Tie-break contract: same-tick events run in insertion order even
    // when scheduled from different places — up front, from an earlier
    // event, and from an event at the same tick.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(7, [&]() { order.push_back(0); });
    eq.scheduleAt(3, [&]() {
        eq.scheduleAt(7, [&]() { order.push_back(1); });
    });
    eq.scheduleAt(7, [&]() {
        order.push_back(2);
        eq.schedule(0, [&]() { order.push_back(3); });   // tick 7 too
    });
    eq.advanceTo(7);
    // Insertion order at tick 7: [0] up-front, [2] up-front-second,
    // [1] scheduled at tick 3, [3] scheduled during tick 7.
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
}

TEST(EventQueue, MidExecutionSchedulingAtOrBelowTickRunsInSameAdvance)
{
    // An event that schedules work for a later tick still <= the
    // advanceTo bound must see that work run in the same call.
    EventQueue eq;
    std::vector<Cycle> at;
    eq.scheduleAt(5, [&]() {
        eq.scheduleAt(9, [&]() { at.push_back(eq.now()); });
        eq.schedule(2, [&]() { at.push_back(eq.now()); });   // tick 7
    });
    eq.advanceTo(9);
    EXPECT_EQ(at, (std::vector<Cycle>{7, 9}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 9u);
}

TEST(EventQueue, NextEventTickTracksEarliestPendingEvent)
{
    EventQueue eq;
    eq.scheduleAt(40, []() {});
    EXPECT_EQ(eq.nextEventTick(), 40u);
    eq.scheduleAt(12, []() {});
    EXPECT_EQ(eq.nextEventTick(), 12u);
    eq.scheduleAt(25, []() {});
    EXPECT_EQ(eq.nextEventTick(), 12u);
    eq.advanceTo(12);
    EXPECT_EQ(eq.nextEventTick(), 25u);
    eq.advanceTo(30);
    EXPECT_EQ(eq.nextEventTick(), 40u);
    // Far-future events (beyond the timing wheel's span) still order
    // correctly against near ones.
    eq.scheduleAt(1'000'000, []() {});
    EXPECT_EQ(eq.nextEventTick(), 40u);
    eq.advanceTo(40);
    EXPECT_EQ(eq.nextEventTick(), 1'000'000u);
    eq.scheduleAt(500'000, []() {});
    EXPECT_EQ(eq.nextEventTick(), 500'000u);
    eq.drain();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 1'000'000u);
}

TEST(EventQueue, FarAndNearEventsAtSameTickPreserveScheduleOrder)
{
    // A far-scheduled event (beyond the wheel span) must run before a
    // near-scheduled one for the same tick: it was scheduled earlier.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(5000, [&]() { order.push_back(0); });   // far at t=0
    eq.advanceTo(4000);
    eq.scheduleAt(5000, [&]() { order.push_back(1); });   // near now
    eq.advanceTo(5000);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventQueue, ActivityCountersTrackScheduleAndExecute)
{
    EventQueue eq;
    EXPECT_EQ(eq.scheduledCount(), 0u);
    EXPECT_EQ(eq.executedCount(), 0u);
    eq.scheduleAt(2, []() {});
    eq.scheduleAt(4, []() {});
    EXPECT_EQ(eq.scheduledCount(), 2u);
    EXPECT_EQ(eq.executedCount(), 0u);
    eq.advanceTo(3);
    EXPECT_EQ(eq.executedCount(), 1u);
    eq.advanceTo(10);
    EXPECT_EQ(eq.executedCount(), 2u);
}

TEST(EventQueue, WakeHookFiresForTaggedEventsBeforeTheirCallback)
{
    EventQueue eq;
    std::vector<std::pair<std::uint32_t, Cycle>> wakes;
    std::vector<int> order;
    struct HookCtx {
        std::vector<std::pair<std::uint32_t, Cycle>>* wakes;
        std::vector<int>* order;
    } hookCtx{&wakes, &order};
    eq.setWakeHook(
        [](void* ctx, std::uint32_t node, Cycle when) {
            auto* c = static_cast<HookCtx*>(ctx);
            c->wakes->emplace_back(node, when);
            c->order->push_back(0);
        },
        &hookCtx);
    eq.scheduleAt(5, [&]() { order.push_back(1); }, 3);
    eq.scheduleAt(6, [&]() { order.push_back(2); });   // untagged: no wake
    eq.advanceTo(10);
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0], (std::pair<std::uint32_t, Cycle>{3, 5}));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RelativeScheduleUsesCurrentTime)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.advanceTo(50);
    eq.schedule(7, [&]() { seen = eq.now(); });
    eq.drain();
    EXPECT_EQ(seen, 57u);
}

TEST(EventQueue, DrainEmptiesEverything)
{
    EventQueue eq;
    int fired = 0;
    for (Cycle t = 1; t <= 64; ++t)
        eq.scheduleAt(t * 3, [&]() { ++fired; });
    eq.drain();
    EXPECT_EQ(fired, 64);
    EXPECT_TRUE(eq.empty());
}

namespace {

/**
 * Harness for the retry-batching tests. Every attempt of retry `id`
 * (RetryRecord::block) logs {tick, id, attempt}; delays[id][k] is what
 * attempt k returns (past the end: 0, finished). An attempt may first
 * spawn follow-ups listed in spawns[id] (its first attempt only): a
 * retry or a plain logging event, either with a delay.
 */
struct RetryWorld
{
    struct Spawn
    {
        bool retry;
        Cycle delay;
        Addr id;
    };

    EventQueue eq;
    std::vector<std::array<std::uint64_t, 3>> log;
    std::vector<std::vector<Cycle>> delays;
    std::vector<std::vector<Spawn>> spawns;

    explicit RetryWorld(std::size_t ids) : delays(ids), spawns(ids) {}

    static Cycle
    attempt(void* owner, RetryRecord& rec)
    {
        auto* w = static_cast<RetryWorld*>(owner);
        w->log.push_back({w->eq.now(), rec.block, rec.attempt});
        if (rec.attempt == 0) {
            for (const Spawn& sp : w->spawns[rec.block]) {
                if (sp.retry)
                    w->retry(sp.delay, sp.id);
                else
                    w->plain(sp.delay, sp.id);
            }
        }
        const std::vector<Cycle>& d = w->delays[rec.block];
        const Cycle again = rec.attempt < d.size() ? d[rec.attempt] : 0;
        ++rec.attempt;
        return again;
    }

    void
    retry(Cycle delay, Addr id, std::uint32_t wake = kNoWakeNode)
    {
        eq.scheduleRetry(delay,
                         RetryRecord{&attempt, this, id, {}, 0, wake});
    }

    void
    plain(Cycle delay, Addr id)
    {
        eq.schedule(delay, [this, id]() {
            log.push_back({eq.now(), id, 0});
        });
    }
};

using LogRow = std::array<std::uint64_t, 3>;

} // namespace

TEST(RetryBatch, RecordsRunInTheFifoOrderOfSeparateEvents)
{
    RetryWorld w(4);
    w.delays[0] = {10, 10};   // three attempts
    w.delays[2] = {5};        // two attempts, the second off-period
    w.retry(10, 0);
    w.retry(10, 1);
    w.retry(10, 2);
    w.plain(10, 3);           // scheduled after the batch: runs after
    w.eq.drain();
    EXPECT_EQ(w.log, (std::vector<LogRow>{{10, 0, 0},
                                          {10, 1, 0},
                                          {10, 2, 0},
                                          {10, 3, 0},
                                          {15, 2, 1},
                                          {20, 0, 1},
                                          {30, 0, 2}}));
    // One node for the three first attempts, one for the plain event,
    // and one each for the carried attempts at 15, 20 and 30.
    EXPECT_EQ(w.eq.dispatchedNodes(), 5u);
}

TEST(RetryBatch, AnyInterveningScheduleOpensANewBatch)
{
    // Same tick: the plain event must run between the two retries.
    RetryWorld w(3);
    w.retry(10, 0);
    w.plain(10, 1);
    w.retry(10, 2);
    w.eq.advanceTo(10);
    EXPECT_EQ(w.log,
              (std::vector<LogRow>{{10, 0, 0}, {10, 1, 0}, {10, 2, 0}}));
    EXPECT_EQ(w.eq.dispatchedNodes(), 3u);

    // Another tick: the order is unaffected, but the retries no longer
    // share a node.
    RetryWorld far(3);
    far.retry(10, 0);
    far.plain(500, 1);
    far.retry(10, 2);
    far.eq.advanceTo(10);
    EXPECT_EQ(far.log, (std::vector<LogRow>{{10, 0, 0}, {10, 2, 0}}));
    EXPECT_EQ(far.eq.dispatchedNodes(), 2u);

    // Nothing in between: one node.
    RetryWorld adj(2);
    adj.retry(10, 0);
    adj.retry(10, 1);
    adj.eq.advanceTo(10);
    EXPECT_EQ(adj.eq.dispatchedNodes(), 1u);
}

TEST(RetryBatch, SchedulesMadeWhileABatchRunsLandAfterIt)
{
    RetryWorld w(6);
    // Attempt 0 of id 0 schedules a same-tick retry, a same-tick plain
    // event, and a retry due with the carried ones; it is carried too.
    w.delays[0] = {10};
    w.delays[1] = {10};
    w.spawns[0] = {{true, 0, 3}, {false, 0, 4}, {true, 10, 5}};
    w.retry(10, 0);
    w.retry(10, 1);
    w.retry(10, 2);
    w.eq.drain();
    EXPECT_EQ(w.log, (std::vector<LogRow>{{10, 0, 0},
                                          {10, 1, 0},
                                          {10, 2, 0},
                                          {10, 3, 0},
                                          {10, 4, 0},
                                          {20, 5, 0},
                                          {20, 0, 1},
                                          {20, 1, 1}}));
}

TEST(RetryBatch, OutsideRetryDuringACarryingRunKeepsItsPlace)
{
    // Every record of an n-record batch is carried; record k schedules
    // another retry for the carried tick just before its own carry, so
    // that retry must run between k-1 and k there. Sweeping n and k
    // covers every position in and across the batch's storage.
    for (Addr n = 1; n <= 40; ++n) {
        for (Addr k = 0; k < n; ++k) {
            RetryWorld w(n + 1);
            for (Addr id = 0; id < n; ++id) {
                w.delays[id] = {10};
                w.retry(10, id);
            }
            w.spawns[k] = {{true, 10, n}};
            w.eq.drain();
            std::vector<LogRow> want;
            for (Addr id = 0; id < n; ++id)
                want.push_back({10, id, 0});
            for (Addr id = 0; id < n; ++id) {
                if (id == k)
                    want.push_back({20, n, 0});
                want.push_back({20, id, 1});
            }
            ASSERT_EQ(w.log, want) << "n=" << n << " k=" << k;
        }
    }
}

TEST(RetryBatch, CountersAdvanceOncePerRecord)
{
    RetryWorld w(3);
    w.delays[1] = {10};
    w.retry(10, 0);
    w.retry(10, 1);
    w.retry(10, 2);
    EXPECT_EQ(w.eq.scheduledCount(), 3u);
    EXPECT_EQ(w.eq.executedCount(), 0u);
    w.eq.advanceTo(10);
    EXPECT_EQ(w.eq.executedCount(), 3u);
    EXPECT_EQ(w.eq.scheduledCount(), 4u);   // + the carried attempt
    w.eq.advanceTo(20);
    EXPECT_EQ(w.eq.executedCount(), 4u);
    EXPECT_EQ(w.eq.scheduledCount(), 4u);
    EXPECT_EQ(w.eq.dispatchedNodes(), 2u);
}

TEST(RetryBatch, WakeHookFiresOncePerRecordWithNodeAndTick)
{
    RetryWorld w(3);
    std::vector<std::pair<std::uint32_t, Cycle>> wakes;
    w.eq.setWakeHook(
        [](void* ctx, std::uint32_t node, Cycle when) {
            static_cast<std::vector<std::pair<std::uint32_t, Cycle>>*>(ctx)
                ->emplace_back(node, when);
        },
        &wakes);
    w.delays[0] = {10};
    w.retry(10, 0, 1);
    w.retry(10, 1);   // untagged: no wake
    w.retry(10, 2, 2);
    w.eq.drain();
    EXPECT_EQ(wakes, (std::vector<std::pair<std::uint32_t, Cycle>>{
                         {1, 10}, {2, 10}, {1, 20}}));
}

TEST(RetryBatch, SizeEmptyAndNextEventTickStayConsistent)
{
    // Observed from inside each attempt, the queue must look exactly
    // as it would with one event per record.
    struct Probe
    {
        EventQueue eq;
        std::vector<std::array<std::uint64_t, 3>> seen;   // size, empty, next

        static Cycle
        attempt(void* owner, RetryRecord& rec)
        {
            auto* p = static_cast<Probe*>(owner);
            p->seen.push_back({p->eq.size(), p->eq.empty() ? 1u : 0u,
                               p->eq.empty() ? 0 : p->eq.nextEventTick()});
            return rec.block == 2 && rec.attempt++ == 0 ? 10 : 0;
        }
    } p;
    for (Addr id = 0; id < 3; ++id)
        p.eq.scheduleRetry(10, RetryRecord{&Probe::attempt, &p, id, {}, 0,
                                           kNoWakeNode});
    EXPECT_EQ(p.eq.size(), 3u);
    EXPECT_EQ(p.eq.nextEventTick(), 10u);
    p.eq.advanceTo(10);
    EXPECT_EQ(p.seen, (std::vector<std::array<std::uint64_t, 3>>{
                          {2, 0, 10}, {1, 0, 10}, {0, 1, 0}}));
    EXPECT_EQ(p.eq.size(), 1u);
    EXPECT_FALSE(p.eq.empty());
    EXPECT_EQ(p.eq.nextEventTick(), 20u);
    p.eq.advanceTo(20);
    EXPECT_TRUE(p.eq.empty());
    EXPECT_EQ(p.seen.back(), (std::array<std::uint64_t, 3>{0, 1, 0}));
}

TEST(RetryBatch, RandomRetryMixMatchesSeparateEvents)
{
    // Differential check: the same seeded mix of retries, carried
    // attempts, mid-batch spawns and plain events, once through
    // scheduleRetry and once as one plain event per attempt, must
    // produce the same log, wakes and counters at every tick. Each
    // attempt also logs the queue's size and next tick as it sees them.
    struct Sim
    {
        EventQueue eq;
        bool batched;
        std::vector<std::array<std::uint64_t, 5>> log;
        std::vector<std::pair<std::uint32_t, Cycle>> wakes;
        Addr nextId = 0;

        explicit Sim(bool b) : batched(b)
        {
            eq.setWakeHook(
                [](void* ctx, std::uint32_t node, Cycle when) {
                    static_cast<Sim*>(ctx)->wakes.emplace_back(node, when);
                },
                this);
        }

        static std::uint64_t
        mix(Addr id, std::uint32_t attempt)
        {
            std::uint64_t x = id * 0x9e3779b97f4a7c15ull + attempt + 1;
            x ^= x >> 31;
            x *= 0xbf58476d1ce4e5b9ull;
            return x ^ (x >> 29);
        }

        /** One attempt's body; returns its delay (0 = finished). */
        Cycle
        body(Addr id, std::uint32_t attempt)
        {
            log.push_back({eq.now(), id, attempt, eq.size(),
                           eq.empty() ? 0 : eq.nextEventTick()});
            const std::uint64_t h = mix(id, attempt);
            if (h % 23 == 0) {
                start(h % 3 == 0 ? h % 13 : 10,
                      static_cast<std::uint32_t>(h % 5));
            }
            if (h % 19 == 0) {
                const Addr pid = nextId++;
                eq.schedule(h % 11, [this, pid]() {
                    log.push_back({eq.now(), pid, 99, eq.size(), 0});
                });
            }
            const std::uint64_t r = (h >> 8) % 100;
            if (r < 12)
                return 0;
            if (r < 20)
                return 1 + (h >> 16) % 12;
            return 10;
        }

        static Cycle
        thunk(void* owner, RetryRecord& rec)
        {
            const Cycle again =
                static_cast<Sim*>(owner)->body(rec.block, rec.attempt);
            ++rec.attempt;
            return again;
        }

        void
        plainAttempt(Cycle delay, Addr id, std::uint32_t attempt,
                     std::uint32_t wake)
        {
            eq.schedule(delay, [this, id, attempt, wake]() {
                const Cycle again = body(id, attempt);
                if (again != 0)
                    plainAttempt(again, id, attempt + 1, wake);
            }, wake);
        }

        void
        start(Cycle delay, std::uint32_t wake)
        {
            const Addr id = nextId++;
            const std::uint32_t node = wake < 4 ? wake : kNoWakeNode;
            if (batched) {
                eq.scheduleRetry(delay, RetryRecord{&thunk, this, id, {},
                                                    0, node});
            } else {
                plainAttempt(delay, id, 0, node);
            }
        }
    };

    Sim batched(true), plain(false);
    Rng rng(2024);
    std::size_t checked = 0;
    for (Cycle t = 1; t <= 3000; ++t) {
        const std::uint64_t starts = rng.below(8);
        for (std::uint64_t k = 0; k < starts; ++k) {
            const Cycle delay = rng.below(3) == 0 ? rng.below(15) : 10;
            const auto wake = static_cast<std::uint32_t>(rng.below(5));
            batched.start(delay, wake);
            plain.start(delay, wake);
        }
        batched.eq.advanceTo(t);
        plain.eq.advanceTo(t);
        ASSERT_EQ(batched.log.size(), plain.log.size()) << "tick " << t;
        for (; checked < plain.log.size(); ++checked)
            ASSERT_EQ(batched.log[checked], plain.log[checked]) << "tick " << t;
        ASSERT_EQ(batched.eq.scheduledCount(), plain.eq.scheduledCount());
        ASSERT_EQ(batched.eq.executedCount(), plain.eq.executedCount());
        ASSERT_EQ(batched.eq.size(), plain.eq.size());
        if (!plain.eq.empty()) {
            ASSERT_EQ(batched.eq.nextEventTick(),
                      plain.eq.nextEventTick());
        }
    }
    EXPECT_EQ(batched.wakes, plain.wakes);
    EXPECT_GT(batched.log.size(), 10000u);
    // The point of batching: far fewer queue nodes for the same work.
    EXPECT_LT(batched.eq.dispatchedNodes() * 2,
              plain.eq.dispatchedNodes());
}

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(r.below(37), 37u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = r.range(3, 6);
        ASSERT_GE(v, 3u);
        ASSERT_LE(v, 6u);
        saw_lo |= (v == 3);
        saw_hi |= (v == 6);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, CopyReplaysIdentically)
{
    Rng a(123);
    a.next();
    a.next();
    Rng b = a;   // value-copy snapshot
    std::vector<std::uint64_t> va, vb;
    for (int i = 0; i < 50; ++i)
        va.push_back(a.next());
    for (int i = 0; i < 50; ++i)
        vb.push_back(b.next());
    EXPECT_EQ(va, vb);
}

TEST(Rng, ChancePermilleRoughlyCalibrated)
{
    Rng r(5);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += r.chancePermille(250);
    EXPECT_NEAR(hits, 25000, 1500);
}

TEST(Stats, RegisterAndRead)
{
    StatRegistry reg;
    std::uint64_t counter = 41;
    reg.registerStat("a.counter", &counter);
    ++counter;
    EXPECT_EQ(reg.get("a.counter"), 42u);
}

TEST(StatsDeathTest, GetOfUnknownNameIsFatal)
{
    // A typo in table/bench code must not fabricate a zero statistic.
    StatRegistry reg;
    std::uint64_t counter = 1;
    reg.registerStat("core0.cycles", &counter);
    EXPECT_EXIT(reg.get("core0.cycels"),
                ::testing::ExitedWithCode(1), "unknown statistic");
}

TEST(Stats, AggregateMatchesPrefixStarSuffix)
{
    StatRegistry reg;
    std::uint64_t a = 1, b = 2, c = 4, d = 8;
    reg.registerStat("core0.cycles.busy", &a);
    reg.registerStat("core1.cycles.busy", &b);
    reg.registerStat("core1.cycles.other", &c);
    reg.registerStat("system.fastfwd.cycles", &d);
    EXPECT_EQ(reg.aggregate("core*.busy"), 3u);
    EXPECT_EQ(reg.aggregate("core1*"), 6u);
    EXPECT_EQ(reg.aggregate("*.cycles"), 8u);
    // No '*': one exact name. No match: 0, not a fatal error.
    EXPECT_EQ(reg.aggregate("core1.cycles.other"), 4u);
    EXPECT_EQ(reg.aggregate("system.fault.drops"), 0u);
}

TEST(Stats, SnapshotIsInNameOrder)
{
    StatRegistry reg;
    std::uint64_t x = 1, y = 2;
    reg.registerStat("zz", &x);
    reg.registerStat("aa", &y);
    EXPECT_EQ(reg.snapshot(), (StatRegistry::Snapshot{2, 1}));
}

TEST(Stats, CounterAbove2To53IsExactAcrossAWindow)
{
    // A double holds 53 significant bits: 2^53 + 1 would round to 2^53.
    StatRegistry reg;
    std::uint64_t v = (std::uint64_t{1} << 53) + 1;
    reg.registerStat("core0.retired", &v);
    const StatRegistry::Snapshot before = reg.snapshot();
    EXPECT_EQ(reg.aggregate(before, "core*.retired"), v);
    v += 2;
    const StatRegistry::Snapshot after = reg.snapshot();
    EXPECT_EQ(after[0], (std::uint64_t{1} << 53) + 3);
    EXPECT_EQ(reg.window(before, after, "core*.retired"), 2u);
}

TEST(Stats, ShrinkingCounterWindowReadsZero)
{
    // Nodes sum before the window delta is taken, and the delta clamps.
    StatRegistry reg;
    std::uint64_t a = 100, b = 50;
    reg.registerStat("core0.cycles.violation", &a);
    reg.registerStat("core1.cycles.violation", &b);
    const StatRegistry::Snapshot before = reg.snapshot();
    a -= 30;
    b += 10;
    const StatRegistry::Snapshot after = reg.snapshot();
    EXPECT_EQ(reg.window(before, after, "core*.cycles.violation"), 0u);
    EXPECT_EQ(reg.window(before, after, "core1.cycles.violation"), 10u);
}

TEST(Stats, HighWaterReadsWindowEndMaxAcrossNodes)
{
    StatRegistry reg;
    std::uint64_t a = 40, b = 7;
    reg.registerStat("core0.agent.retry_backoff_max", &a,
                     StatRegistry::Kind::HighWater);
    reg.registerStat("core1.agent.retry_backoff_max", &b,
                     StatRegistry::Kind::HighWater);
    const StatRegistry::Snapshot before = reg.snapshot();
    b = 25;
    const StatRegistry::Snapshot after = reg.snapshot();
    // Not a sum (65), not a delta (18 or 0): the max at window end.
    EXPECT_EQ(reg.aggregate(after, "core*.agent.retry_backoff_max"), 40u);
    EXPECT_EQ(reg.window(before, after, "core*.agent.retry_backoff_max"),
              40u);
    EXPECT_EQ(reg.window(before, after, "core1.agent.retry_backoff_max"),
              25u);
}

TEST(StatsDeathTest, PatternMixingKindsIsFatal)
{
    StatRegistry reg;
    std::uint64_t a = 1, b = 2;
    reg.registerStat("core0.x", &a);
    reg.registerStat("core1.x", &b, StatRegistry::Kind::HighWater);
    EXPECT_EXIT(reg.aggregate("core*.x"), ::testing::ExitedWithCode(1),
                "mixes counters and high-water");
}

TEST(Log, StrformatFormats)
{
    EXPECT_EQ(strformat("x=%d y=%s", 7, "ok"), "x=7 y=ok");
    EXPECT_EQ(strformat("plain"), "plain");
}
