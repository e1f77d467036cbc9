/**
 * @file
 * Unit tests for the sim substrate: ticks, logging, RNG, event queue.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "sim/event_queue.h"
#include "sim/log.h"
#include "sim/random.h"
#include "sim/ticks.h"

namespace svtsim {
namespace {

// ---------------------------------------------------------------- ticks

TEST(Ticks, UnitConversions)
{
    EXPECT_EQ(nsec(1), 1000);
    EXPECT_EQ(usec(1), 1000 * 1000);
    EXPECT_EQ(msec(1), 1000LL * 1000 * 1000);
    EXPECT_EQ(sec(1), 1000LL * 1000 * 1000 * 1000);
    EXPECT_EQ(psec(5), 5);
}

TEST(Ticks, RoundTripReporting)
{
    EXPECT_DOUBLE_EQ(toUsec(usec(10.4)), 10.4);
    EXPECT_DOUBLE_EQ(toNsec(nsec(300)), 300.0);
    EXPECT_DOUBLE_EQ(toSec(sec(2)), 2.0);
}

TEST(Ticks, CyclesAtFrequency)
{
    // One cycle at 2.4 GHz is ~416.6 ps.
    EXPECT_EQ(cycles(1, 2.4), 416);
    EXPECT_EQ(cycles(24, 2.4), 10000);
    EXPECT_EQ(cycles(1, 1.0), 1000);
}

TEST(Ticks, FractionalInputs)
{
    EXPECT_EQ(nsec(0.5), 500);
    EXPECT_EQ(usec(0.081), 81000);
}

// ------------------------------------------------------------------ log

TEST(Log, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom"), PanicError);
    EXPECT_THROW(panic("%d", 42), PanicError);
}

TEST(Log, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Log, ErrorsShareBase)
{
    EXPECT_THROW(panic("x"), SimError);
    EXPECT_THROW(fatal("x"), SimError);
}

TEST(Log, MessagesAreFormatted)
{
    try {
        panic("value=%d name=%s", 7, "core");
        FAIL() << "expected panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=7 name=core"),
                  std::string::npos);
    }
}

TEST(Log, SimAssertPassesAndFails)
{
    EXPECT_NO_THROW(simAssert(true, "fine"));
    EXPECT_THROW(simAssert(false, "broken"), PanicError);
}

TEST(Log, LevelRoundTrip)
{
    LogLevel prev = logLevel();
    setLogLevel(LogLevel::Quiet);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
    setLogLevel(prev);
}

// ------------------------------------------------------------------ rng

TEST(Rng, DeterministicFromSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeMean)
{
    Rng rng(7);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform(10.0, 20.0);
    EXPECT_NEAR(sum / n, 15.0, 0.1);
}

TEST(Rng, BelowBounds)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(5);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= (v == -3);
        saw_hi |= (v == 3);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(13);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(5.0);
    EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ExponentialRequiresPositiveMean)
{
    Rng rng(1);
    EXPECT_THROW(rng.exponential(0.0), PanicError);
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double x = rng.normal(3.0, 2.0);
        sum += x;
        sq += x * x;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 3.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, GeneralizedParetoAboveLocation)
{
    Rng rng(19);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(rng.generalizedPareto(10.0, 2.0, 0.2), 10.0);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(23);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ForkDecorrelates)
{
    Rng parent(31);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (parent.next() == child.next());
    EXPECT_LT(same, 2);
}

TEST(Zipf, RanksInRange)
{
    Rng rng(37);
    ZipfSampler zipf(1000, 0.99);
    for (int i = 0; i < 20000; ++i)
        EXPECT_LT(zipf(rng), 1000u);
}

TEST(Zipf, SkewTowardLowRanks)
{
    Rng rng(41);
    ZipfSampler zipf(10000, 0.99);
    int low = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        low += (zipf(rng) < 100);
    // With s=0.99 over 10k items, the top-100 ranks should absorb a
    // large share of the mass (analytically ~half).
    EXPECT_GT(low, n / 3);
}

TEST(Zipf, FrequencyMonotonicity)
{
    Rng rng(43);
    ZipfSampler zipf(50, 1.2);
    std::vector<int> hits(50, 0);
    for (int i = 0; i < 200000; ++i)
        ++hits[zipf(rng)];
    EXPECT_GT(hits[0], hits[9]);
    EXPECT_GT(hits[9], hits[49]);
}

TEST(Zipf, RejectsBadParameters)
{
    EXPECT_THROW(ZipfSampler(0, 0.99), PanicError);
    EXPECT_THROW(ZipfSampler(10, 1.0), PanicError);
    EXPECT_THROW(ZipfSampler(10, -1.0), PanicError);
}

// --------------------------------------------------------- event queue

TEST(EventQueue, StartsEmptyAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextEventTime(), maxTick);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(nsec(30), [&] { order.push_back(3); });
    eq.schedule(nsec(10), [&] { order.push_back(1); });
    eq.schedule(nsec(20), [&] { order.push_back(2); });
    eq.advanceTo(nsec(100));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), nsec(100));
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(nsec(10), [&order, i] { order.push_back(i); });
    eq.advanceTo(nsec(10));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventSeesOwnTimestamp)
{
    EventQueue eq;
    Ticks seen = -1;
    eq.schedule(nsec(25), [&] { seen = eq.now(); });
    eq.advanceTo(nsec(100));
    EXPECT_EQ(seen, nsec(25));
}

TEST(EventQueue, AdvanceByAccumulates)
{
    EventQueue eq;
    eq.advanceBy(nsec(10));
    eq.advanceBy(nsec(5));
    EXPECT_EQ(eq.now(), nsec(15));
}

TEST(EventQueue, SchedulingInPastPanics)
{
    EventQueue eq;
    eq.advanceTo(nsec(100));
    EXPECT_THROW(eq.schedule(nsec(50), [] {}), PanicError);
}

TEST(EventQueue, AdvanceIntoPastPanics)
{
    EventQueue eq;
    eq.advanceTo(nsec(100));
    EXPECT_THROW(eq.advanceTo(nsec(50)), PanicError);
}

TEST(EventQueue, DeschedulePreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(nsec(10), [&] { ran = true; });
    EXPECT_TRUE(eq.deschedule(id));
    eq.advanceTo(nsec(100));
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DescheduleFiredIsNoop)
{
    EventQueue eq;
    EventId id = eq.schedule(nsec(10), [] {});
    eq.advanceTo(nsec(20));
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, DescheduleUnknownIsNoop)
{
    EventQueue eq;
    EXPECT_FALSE(eq.deschedule(12345));
    EXPECT_FALSE(eq.deschedule(invalidEventId));
}

TEST(EventQueue, NextEventTimeSkipsCancelled)
{
    EventQueue eq;
    EventId early = eq.schedule(nsec(10), [] {});
    eq.schedule(nsec(20), [] {});
    eq.deschedule(early);
    EXPECT_EQ(eq.nextEventTime(), nsec(20));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    std::vector<Ticks> fired;
    eq.schedule(nsec(10), [&] {
        fired.push_back(eq.now());
        eq.schedule(nsec(15), [&] { fired.push_back(eq.now()); });
    });
    eq.advanceTo(nsec(100));
    EXPECT_EQ(fired, (std::vector<Ticks>{nsec(10), nsec(15)}));
}

TEST(EventQueue, RunNextSingleSteps)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(nsec(10), [&] { ++count; });
    eq.schedule(nsec(20), [&] { ++count; });
    EXPECT_TRUE(eq.runNext());
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), nsec(10));
    EXPECT_TRUE(eq.runNext());
    EXPECT_FALSE(eq.runNext());
}

TEST(EventQueue, RunUntilPredicate)
{
    EventQueue eq;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        eq.schedule(nsec(i * 10), [&] { ++count; });
    EXPECT_TRUE(eq.runUntil([&] { return count >= 4; }));
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.now(), nsec(40));
}

TEST(EventQueue, RunUntilDrainsOnUnmetPredicate)
{
    EventQueue eq;
    eq.schedule(nsec(10), [] {});
    EXPECT_FALSE(eq.runUntil([] { return false; }));
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, ExecutedCountTracks)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(nsec(i + 1), [] {});
    eq.advanceTo(nsec(100));
    EXPECT_EQ(eq.executedCount(), 7u);
}

TEST(EventQueue, SizeExcludesCancelled)
{
    EventQueue eq;
    EventId a = eq.schedule(nsec(10), [] {});
    eq.schedule(nsec(20), [] {});
    EXPECT_EQ(eq.size(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.size(), 1u);
}

TEST(EventQueue, DescheduleReleasesClosureEagerly)
{
    // Regression: lazy cancellation used to keep the cancelled
    // std::function (and everything it captured — device or vCPU
    // references) alive in the heap until the entry surfaced, which
    // for a far-future timer could be effectively forever.
    EventQueue eq;
    auto captured = std::make_shared<int>(42);
    EventId id = eq.schedule(sec(3600), [captured] { (void)*captured; });
    EXPECT_EQ(captured.use_count(), 2);
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_EQ(captured.use_count(), 1);
}

TEST(EventQueue, NextEventTimeIsConstAndStable)
{
    EventQueue eq;
    EventId early = eq.schedule(nsec(10), [] {});
    eq.schedule(nsec(20), [] {});
    eq.deschedule(early);
    const EventQueue &ceq = eq;
    EXPECT_EQ(ceq.nextEventTime(), nsec(20));
    // Repeated queries see the same state; pruning cancelled heap
    // entries must not disturb live ones.
    EXPECT_EQ(ceq.nextEventTime(), nsec(20));
    EXPECT_EQ(ceq.size(), 1u);
    bool ran = false;
    eq.schedule(nsec(20), [&] { ran = true; });
    eq.advanceTo(nsec(30));
    EXPECT_TRUE(ran);
}

// Property: interleaved random schedule/cancel/advance keeps the queue
// consistent: every non-cancelled event fires exactly once, in order.
TEST(EventQueue, PropertyRandomizedConsistency)
{
    Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        EventQueue eq;
        std::vector<Ticks> fired;
        std::vector<EventId> ids;
        int expected = 0;
        for (int i = 0; i < 200; ++i) {
            Ticks when = eq.now() +
                         static_cast<Ticks>(rng.below(1000)) + 1;
            ids.push_back(eq.schedule(when, [&fired, &eq] {
                fired.push_back(eq.now());
            }));
            ++expected;
            if (rng.chance(0.2)) {
                auto idx = rng.below(ids.size());
                if (eq.deschedule(ids[idx]))
                    --expected;
            }
            if (rng.chance(0.1))
                eq.advanceBy(static_cast<Ticks>(rng.below(300)));
        }
        eq.advanceTo(eq.now() + 2000);
        EXPECT_EQ(static_cast<int>(fired.size()), expected);
        for (std::size_t i = 1; i < fired.size(); ++i)
            EXPECT_LE(fired[i - 1], fired[i]);
        EXPECT_TRUE(eq.empty());
    }
}

} // namespace
} // namespace svtsim
