/**
 * @file
 * Tests for the timing-wheel event queue: a randomized differential
 * test against the retired binary-heap implementation (the oracle), a
 * zero-steady-state-allocation lock-in for the arena + small-buffer
 * closures, and regression tests for the wheel-specific machinery
 * (cascades, the top level, handle generations).
 */

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "counting_new.h"
#include "oracle/reference_event_queue.h"
#include "sim/closure.h"
#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/random.h"
#include "sim/ticks.h"

namespace svtsim {
namespace {

// ------------------------------------------------------- EventClosure

TEST(EventClosure, SmallCaptureStaysInline)
{
    int hits = 0;
    int *p = &hits;
    EventClosure c([p] { ++*p; });
    EXPECT_TRUE(c.storedInline());
    c();
    c();
    EXPECT_EQ(hits, 2);
}

TEST(EventClosure, LargeCaptureFallsBackToHeap)
{
    struct Big
    {
        char pad[128];
    } big = {};
    int hits = 0;
    int *p = &hits;
    EventClosure c([p, big] {
        ++*p;
        (void)big;
    });
    EXPECT_FALSE(c.storedInline());
    c();
    EXPECT_EQ(hits, 1);
}

TEST(EventClosure, ResetReleasesCapturedResources)
{
    auto token = std::make_shared<int>(7);
    EventClosure c([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    c.reset();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_FALSE(static_cast<bool>(c));
}

TEST(EventClosure, MoveTransfersOwnership)
{
    auto token = std::make_shared<int>(7);
    EventClosure a([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    EventClosure b(std::move(a));
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    b.reset();
    EXPECT_EQ(token.use_count(), 1);
}

// ---------------------------------------------- differential vs oracle

/**
 * One pre-generated operation, replayed identically against both
 * queue implementations. Closures log (tag, fire-time) pairs and may
 * schedule a chained follow-up, so the test also covers events
 * scheduled from inside handlers.
 */
struct Op
{
    enum Kind
    {
        Schedule,     ///< scheduleIn(delta), possibly chained
        Cancel,       ///< deschedule the handle from schedule op a
        AdvanceBy,    ///< advanceBy(delta)
        AdvanceBurst, ///< advanceBy(steps[i]) for each step
        CheckNext,    ///< compare nextEventTime()
    };
    Kind kind;
    Ticks delta = 0;
    std::size_t a = 0;
    int chain = 0;
    /** Schedule: land exactly on the queue's nextEventTime() (when
     *  one is pending) instead of at delta. */
    bool onNext = false;
    /** AdvanceBurst: the tiny consumes of a trap round. */
    std::vector<Ticks> steps;
};

template <class Q, class Id>
struct Driver
{
    Q q;
    std::vector<Id> handles;
    std::vector<std::pair<int, Ticks>> log;
    int nextTag = 0;

    void
    scheduleChained(Ticks delta, int chain)
    {
        const int tag = nextTag++;
        handles.push_back(q.scheduleIn(delta, [this, tag, chain] {
            log.emplace_back(tag, q.now());
            if (chain > 0) {
                // Deterministic follow-up delta derived from the tag.
                const Ticks d =
                    static_cast<Ticks>((tag * 2654435761u) % 100000);
                scheduleChained(d, chain - 1);
            }
        }));
    }
};

TEST(EventWheelDifferential, MatchesReferenceHeapOnRandomOps)
{
    // ~1e6 operations overall: 16 trials x 32k ops, plus the chained
    // events the closures schedule and the end-of-trial drain.
    const int trials = 16;
    const int opsPerTrial = 32768;
    Rng rng(20260808);

    for (int trial = 0; trial < trials; ++trial) {
        std::vector<Op> ops;
        ops.reserve(static_cast<std::size_t>(opsPerTrial));
        std::size_t scheduled = 0;
        for (int i = 0; i < opsPerTrial; ++i) {
            Op op;
            if (rng.below(16) == 0) {
                // A burst of small advances, most of which cross no
                // event: the lazy clock's fast path.
                op.kind = Op::AdvanceBurst;
                const std::uint64_t n = 1 + rng.below(64);
                for (std::uint64_t k = 0; k < n; ++k)
                    op.steps.push_back(
                        static_cast<Ticks>(rng.below(301)));
                ops.push_back(std::move(op));
                continue;
            }
            const double roll = rng.uniform();
            if (roll < 0.45 || scheduled == 0) {
                op.kind = Op::Schedule;
                // Mix of distances: same-tick, level-0, mid-wheel,
                // high-wheel, and (rarely) beyond the far horizon.
                const double d = rng.uniform();
                if (d < 0.10)
                    op.delta = 0;
                else if (d < 0.45)
                    op.delta = static_cast<Ticks>(rng.below(256));
                else if (d < 0.75)
                    op.delta = static_cast<Ticks>(rng.below(1u << 16));
                else if (d < 0.92)
                    op.delta = static_cast<Ticks>(rng.below(1u << 24));
                else if (d < 0.99)
                    op.delta = static_cast<Ticks>(rng.below(1u << 30))
                               << 18;
                else
                    op.delta = maxTick; // saturating far/"infinite"
                op.chain = rng.chance(0.15) ? 2 : 0;
                op.onNext = rng.below(8) == 0;
                ++scheduled;
            } else if (roll < 0.70) {
                op.kind = Op::Cancel;
                op.a = rng.below(scheduled);
            } else if (roll < 0.90) {
                op.kind = Op::AdvanceBy;
                const double d = rng.uniform();
                if (d < 0.5)
                    op.delta = static_cast<Ticks>(rng.below(4096));
                else if (d < 0.9)
                    op.delta = static_cast<Ticks>(rng.below(1u << 20));
                else
                    op.delta = static_cast<Ticks>(rng.below(1u << 28));
            } else {
                op.kind = Op::CheckNext;
            }
            ops.push_back(op);
        }

        Driver<EventQueue, EventId> wheel;
        Driver<ReferenceEventQueue, ReferenceEventId> oracle;

        for (const Op &op : ops) {
            switch (op.kind) {
            case Op::Schedule: {
                const Ticks next = wheel.q.nextEventTime();
                ASSERT_EQ(next, oracle.q.nextEventTime());
                const Ticks delta = op.onNext && next != maxTick
                                        ? next - wheel.q.now()
                                        : op.delta;
                wheel.scheduleChained(delta, op.chain);
                oracle.scheduleChained(delta, op.chain);
                break;
            }
            case Op::Cancel: {
                const bool a = wheel.q.deschedule(wheel.handles[op.a]);
                const bool b =
                    oracle.q.deschedule(oracle.handles[op.a]);
                ASSERT_EQ(a, b);
                break;
            }
            case Op::AdvanceBy:
                wheel.q.advanceBy(op.delta);
                oracle.q.advanceBy(op.delta);
                break;
            case Op::AdvanceBurst:
                for (const Ticks step : op.steps) {
                    wheel.q.advanceBy(step);
                    oracle.q.advanceBy(step);
                    ASSERT_EQ(wheel.q.now(), oracle.q.now());
                    ASSERT_EQ(wheel.log.size(), oracle.log.size());
                }
                break;
            case Op::CheckNext:
                ASSERT_EQ(wheel.q.nextEventTime(),
                          oracle.q.nextEventTime());
                break;
            }
            ASSERT_EQ(wheel.q.now(), oracle.q.now());
            ASSERT_EQ(wheel.q.size(), oracle.q.size());
            ASSERT_EQ(wheel.q.empty(), oracle.q.empty());
            ASSERT_EQ(wheel.q.executedCount(),
                      oracle.q.executedCount());
            ASSERT_EQ(wheel.log.size(), oracle.log.size());
        }

        // Drain both completely (fires the far/maxTick stragglers) and
        // require identical fire order and now() trajectory.
        wheel.q.advanceTo(maxTick);
        oracle.q.advanceTo(maxTick);
        ASSERT_TRUE(wheel.q.empty());
        ASSERT_TRUE(oracle.q.empty());
        ASSERT_EQ(wheel.q.executedCount(), oracle.q.executedCount());
        ASSERT_EQ(wheel.log, oracle.log)
            << "fire order diverged in trial " << trial;

        // pending() agrees for every handle ever issued.
        for (std::size_t i = 0; i < wheel.handles.size(); ++i)
            ASSERT_EQ(wheel.q.pending(wheel.handles[i]),
                      oracle.q.pending(oracle.handles[i]));
    }
}

// ------------------------------------------------- zero-alloc lock-in

TEST(EventWheel, ZeroAllocationSteadyState)
{
    EventQueue eq;
    // Warm-up: grow the arena past the steady-state live-event
    // high-water mark and intern every label the loop uses.
    for (int i = 0; i < 1024; ++i)
        eq.scheduleIn(nsec(1 + i % 7), [] {}, "wheel-warm-tick");
    eq.scheduleIn(msec(1), [] {}, "wheel-warm-watchdog");
    eq.advanceBy(msec(2));
    ASSERT_TRUE(eq.empty());

    // Steady state: watchdog-style schedule/cancel churn plus a burst
    // of short timers per iteration, all fired. The arena freelist,
    // inline closures and interned labels make this malloc-free.
    const std::uint64_t before = g_allocCount.load();
    std::uint64_t fired = 0;
    for (int iter = 0; iter < 20000; ++iter) {
        EventId watchdog =
            eq.scheduleIn(msec(5), [] {}, "wheel-warm-watchdog");
        for (int j = 0; j < 8; ++j)
            eq.scheduleIn(nsec(100 * (j + 1)),
                          [&fired] { ++fired; }, "wheel-warm-tick");
        eq.advanceBy(usec(1));
        eq.deschedule(watchdog);
    }
    eq.advanceBy(msec(10));
    const std::uint64_t after = g_allocCount.load();
    EXPECT_EQ(after - before, 0u)
        << "steady-state schedule/cancel/fire cycle allocated";
    EXPECT_EQ(fired, 20000u * 8u);
    EXPECT_TRUE(eq.empty());
}

// ------------------------------------- cancel-everything consistency

TEST(EventWheel, CancelEverythingKeepsAccessorsConsistent)
{
    // Regression: with the lazy-deletion heap, a queue holding nothing
    // but cancelled entries said empty() while nextEventTime() still
    // surfaced stale heap debris until something pruned it. Eager
    // removal makes all accessors agree by construction; lock that in.
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.push_back(eq.scheduleIn(nsec(i + 1), [] {}));
    for (EventId id : ids)
        EXPECT_TRUE(eq.deschedule(id));

    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.size(), 0u);
    EXPECT_EQ(eq.nextEventTime(), maxTick);
    eq.advanceBy(usec(1));
    EXPECT_EQ(eq.executedCount(), 0u);

    // The queue stays fully usable afterwards.
    bool ran = false;
    eq.scheduleIn(nsec(5), [&] { ran = true; });
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.nextEventTime(), eq.now() + nsec(5));
    eq.advanceBy(nsec(10));
    EXPECT_TRUE(ran);
    EXPECT_TRUE(eq.empty());
}

// --------------------------------------------- overflow saturation

TEST(EventWheel, ScheduleInSaturatesAtMaxTick)
{
    // Regression: now_ + delta used to overflow signed int64 (UB) for
    // maxTick-style timeout deltas and then panic with a nonsense
    // timestamp. It saturates now.
    EventQueue eq;
    eq.advanceBy(usec(3));
    EventId id = eq.scheduleIn(maxTick, [] {});
    EXPECT_TRUE(eq.pending(id));
    EXPECT_EQ(eq.nextEventTime(), maxTick);
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_TRUE(eq.empty());
}

TEST(EventWheel, AdvanceBySaturatesAtMaxTick)
{
    EventQueue eq;
    eq.advanceBy(usec(1));
    bool ran = false;
    eq.scheduleIn(maxTick, [&] { ran = true; });
    eq.advanceBy(maxTick); // would overflow pre-fix
    EXPECT_EQ(eq.now(), maxTick);
    EXPECT_TRUE(ran); // a saturated advance reaches saturated timers
    eq.advanceBy(maxTick); // idempotent at the rail
    EXPECT_EQ(eq.now(), maxTick);
}

TEST(EventWheel, NegativeDeltaStillPanics)
{
    EventQueue eq;
    eq.advanceBy(usec(1));
    EXPECT_THROW(eq.scheduleIn(-5, [] {}), PanicError);
}

// ------------------------------------------------- wheel mechanics

TEST(EventWheel, SameTickFifoAcrossCascadeBoundaries)
{
    // Two events at the same tick, scheduled from different distances:
    // the first travels through upper wheel levels and cascades down,
    // the second is inserted directly into the level-0 slot after time
    // has advanced close to the target. Seq order must survive.
    EventQueue eq;
    std::vector<int> order;
    const Ticks target = usec(300); // 3e8 ticks: enters at level 3
    eq.schedule(target, [&] { order.push_back(1); });
    eq.advanceTo(target - nsec(50));
    eq.schedule(target, [&] { order.push_back(2); }); // level 0/1 direct
    eq.schedule(target, [&] { order.push_back(3); });
    eq.advanceTo(target + 1);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventWheel, TopLevelEventsFireInOrder)
{
    EventQueue eq;
    std::vector<int> order;
    const Ticks beyond = static_cast<Ticks>(1) << 57; // level 7
    eq.schedule(beyond + 5, [&] { order.push_back(2); });
    eq.schedule(beyond, [&] { order.push_back(1); });
    eq.schedule(maxTick, [&] { order.push_back(3); });
    EXPECT_EQ(eq.nextEventTime(), beyond);
    EXPECT_EQ(eq.size(), 3u);
    eq.advanceTo(beyond + 5);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.nextEventTime(), maxTick);
    eq.advanceTo(maxTick);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_TRUE(eq.empty());

    // From a non-zero now(): the top-level slot base must not carry
    // now()'s low bits (else the final advance skips the slot and
    // strands its events behind now()), and a direct insert into a
    // top-level slot fires after the events already queued there.
    EventQueue late;
    std::vector<int> lateOrder;
    const Ticks target = beyond + 3;
    late.advanceTo(1000);
    late.schedule(target, [&] { lateOrder.push_back(1); });
    late.schedule(target, [&] { lateOrder.push_back(2); });
    const EventId forever = late.schedule(maxTick, [] {});
    late.advanceTo(beyond - 1); // just before target's top-level window
    late.schedule(target, [&] { lateOrder.push_back(3); });
    EXPECT_TRUE(late.deschedule(forever));
    late.advanceTo(target);
    EXPECT_EQ(lateOrder, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(late.now(), target);
    EXPECT_TRUE(late.empty());
}

TEST(EventWheel, StaleHandleDoesNotAliasRecycledRecord)
{
    EventQueue eq;
    bool firstRan = false, secondRan = false;
    EventId a = eq.scheduleIn(nsec(1), [&] { firstRan = true; });
    eq.advanceBy(nsec(2));
    EXPECT_TRUE(firstRan);
    EXPECT_FALSE(eq.pending(a));
    // The arena slot is recycled by the next schedule; the stale
    // handle must not reach the new tenant.
    EventId b = eq.scheduleIn(nsec(5), [&] { secondRan = true; });
    EXPECT_NE(a, b);
    EXPECT_FALSE(eq.pending(a));
    EXPECT_FALSE(eq.deschedule(a));
    EXPECT_TRUE(eq.pending(b));
    eq.advanceBy(nsec(10));
    EXPECT_TRUE(secondRan);
}

TEST(EventWheel, HandlerSchedulingAtCurrentTickRunsInSameAdvance)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(nsec(10), [&] {
        order.push_back(1);
        eq.schedule(eq.now(), [&] { order.push_back(2); });
    });
    eq.advanceTo(nsec(10));
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(eq.empty());
}

TEST(EventWheel, ManyEventsAcrossAllLevels)
{
    // Sweep deltas through every wheel level and verify global time
    // ordering plus exact counts.
    EventQueue eq;
    std::vector<Ticks> fired;
    int n = 0;
    for (int level = 0; level < 8; ++level) {
        const Ticks base = static_cast<Ticks>(1)
                           << (level * EventQueue::slotBits);
        for (int j = 0; j < 32; ++j) {
            eq.schedule(base + j * 3,
                        [&fired, &eq] { fired.push_back(eq.now()); });
            ++n;
        }
    }
    eq.advanceTo(static_cast<Ticks>(1) << 60);
    EXPECT_EQ(static_cast<int>(fired.size()), n);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1], fired[i]);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace svtsim
