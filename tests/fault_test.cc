/**
 * @file
 * Tests for the deterministic fault-injection subsystem and the SW SVt
 * heartbeat watchdog: spec parsing, per-site stream independence, the
 * LAPIC delivery-time bugfixes, ring back-pressure, the Section 5.3
 * degradation matrix and byte-identity of fault runs across --jobs.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hv/channel.h"
#include "hv/cpuid_db.h"
#include "hv/vectors.h"
#include "hv/virt_stack.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtqueue.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "sim/random.h"
#include "system/bench_harness.h"
#include "system/nested_system.h"

namespace svtsim {
namespace {

// ------------------------------------------------------------ plan parsing

TEST(FaultPlan, EmptySpecYieldsEmptyPlan)
{
    EXPECT_TRUE(FaultPlan().empty());
    EXPECT_TRUE(FaultPlan::parse("").empty());
    EXPECT_TRUE(FaultPlan::parse(" ; ;").empty());
}

TEST(FaultPlan, ParsesOccurrenceTrigger)
{
    FaultPlan plan = FaultPlan::parse("ipi.drop@n2");
    ASSERT_EQ(plan.clauses().size(), 1u);
    const FaultClause &c = plan.clauses()[0];
    EXPECT_EQ(c.site, FaultSite::IpiDrop);
    EXPECT_FALSE(c.probabilistic);
    EXPECT_EQ(c.first, 2u);
    EXPECT_EQ(c.count, 1u);
}

TEST(FaultPlan, ParsesOccurrenceWindow)
{
    FaultPlan plan = FaultPlan::parse("ring.post.drop@n1+3");
    ASSERT_EQ(plan.clauses().size(), 1u);
    EXPECT_EQ(plan.clauses()[0].site, FaultSite::RingPostDrop);
    EXPECT_EQ(plan.clauses()[0].first, 1u);
    EXPECT_EQ(plan.clauses()[0].count, 3u);
}

TEST(FaultPlan, ParsesProbabilisticDelay)
{
    FaultPlan plan = FaultPlan::parse("ipi.delay@p0.5,d2us");
    ASSERT_EQ(plan.clauses().size(), 1u);
    const FaultClause &c = plan.clauses()[0];
    EXPECT_EQ(c.site, FaultSite::IpiDelay);
    EXPECT_TRUE(c.probabilistic);
    EXPECT_DOUBLE_EQ(c.probability, 0.5);
    EXPECT_EQ(c.delay, usec(2));
}

TEST(FaultPlan, ParsesMultipleClauses)
{
    FaultPlan plan = FaultPlan::parse(
        "ipi.drop@n1;virtio.completion.delay@p0.1,d50us");
    ASSERT_EQ(plan.clauses().size(), 2u);
    EXPECT_EQ(plan.clauses()[0].site, FaultSite::IpiDrop);
    EXPECT_EQ(plan.clauses()[1].site, FaultSite::VirtioCompletionDelay);
    EXPECT_DOUBLE_EQ(plan.clauses()[1].probability, 0.1);
    EXPECT_EQ(plan.clauses()[1].delay, usec(50));
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    // Unknown site, missing trigger, malformed trigger, probability
    // out of range, 1-based occurrence violated, delay on a non-delay
    // site, delay site without a delay, bad time unit, a NaN
    // probability, delays past maxFaultDelay (1000 ms; the two plans
    // built from 9000000000 ms clauses parsed once and overflowed the
    // clock when they fired), an occurrence window whose end wraps,
    // and numbers that are not plain decimals (a sign, a hex float, a
    // hex integer).
    for (const char *bad :
         {"bogus.site@n1", "ipi.drop", "ipi.drop@x1", "ipi.drop@p1.5",
          "ipi.drop@n0", "ipi.drop@n1,d1us", "ipi.delay@n1",
          "ipi.delay@n1,d5s", "ipi.delay@n1,q5us", "ipi.drop@pnan",
          "ipi.delay@n1,d1e300ms", "ipi.delay@n1,d1000.001ms",
          "ipi.delay@n1,d1000000001us",
          "virtio.completion.delay@p1,d9000000000ms;"
          "virtio.completion.delay@p1,d9000000000ms",
          "ring.doorbell.delay@p1,d9000000000ms",
          "ipi.drop@n18446744073709551615+2",
          "ipi.drop@p+0.5", "ipi.drop@p0x1p-1", "ipi.delay@n1,d0x10us",
          "ipi.delay@n1,d+2us"}) {
        EXPECT_THROW(FaultPlan::parse(bad), FatalError) << bad;
    }
}

TEST(FaultPlan, RandomSpecsParseOrThrowFatalError)
{
    // Seeded strings over the grammar's tokens, mostly shaped like
    // clauses so that parsing gets past the site name. Every string
    // must parse into in-range clauses or raise FatalError; anything
    // else escaping is a parser bug. The range checks also catch an
    // out-of-range double-to-Ticks cast (it reads INT64_MIN on x86-64),
    // which GCC's -fsanitize=undefined does not include.
    const std::vector<std::string> sites = {
        "ring.post.drop",      "ring.doorbell.delay",
        "ring.wake.spurious",  "ipi.drop",
        "ipi.delay",           "virtio.completion.delay",
        "virtio.backpressure", "ipi.dela",
        ""};
    const std::vector<std::string> digits = {"0", "1", "2", "5", "9"};
    const std::vector<std::string> hostile = {
        ".", "e", "-", "nan", "inf", "18446744073709551615", "300"};
    const std::vector<std::string> units = {"ns", "us", "ms", "s", ""};
    const std::vector<std::string> glue = {"@", "n", "p", "+", ",d",
                                           ";", " ", ","};
    Rng rng(2024);
    auto pick = [&rng](const std::vector<std::string> &from) {
        return from[rng.below(from.size())];
    };
    // A plain decimal three times in four, else a hostile token
    // followed by a run of digits and hostile tokens.
    auto number = [&] {
        const bool plain = rng.below(4) != 0;
        std::string out = plain ? pick(digits) : pick(hostile);
        for (std::uint64_t i = 0, len = rng.below(4); i < len; ++i)
            out += plain || rng.below(2) ? pick(digits) : pick(hostile);
        return out;
    };

    int parsed = 0, rejected = 0;
    for (int i = 0; i < 10000; ++i) {
        std::string spec;
        for (std::uint64_t c = 0, clauses = 1 + rng.below(3);
             c < clauses; ++c) {
            if (c > 0)
                spec += rng.below(2) ? ";" : " ; ";
            if (rng.below(8) == 0) {
                // Token soup: no clause shape at all.
                for (std::uint64_t t = 0, len = rng.below(8); t < len;
                     ++t)
                    spec += rng.below(2) ? pick(glue) : number();
                continue;
            }
            const std::string site = pick(sites);
            spec += site + "@";
            if (rng.below(2)) {
                spec += "p" + (rng.below(2) ? "0." + number() : number());
            } else {
                spec += "n" + number();
                if (rng.below(3) == 0)
                    spec += "+" + number();
            }
            // Delay sites take a delay, the others must not; one clause
            // in eight gets it the wrong way round.
            const bool delaySite =
                site.size() > 6 &&
                site.compare(site.size() - 6, 6, ".delay") == 0;
            if (delaySite != (rng.below(8) == 0))
                spec += ",d" + number() + pick(units);
        }
        try {
            FaultPlan plan = FaultPlan::parse(spec);
            ++parsed;
            for (const FaultClause &clause : plan.clauses()) {
                if (clause.probabilistic) {
                    EXPECT_TRUE(clause.probability >= 0.0 &&
                                clause.probability <= 1.0)
                        << spec;
                } else {
                    EXPECT_GE(clause.first, 1u) << spec;
                    EXPECT_GE(clause.count, 1u) << spec;
                    EXPECT_GT(clause.first + clause.count, clause.first)
                        << spec;
                }
                EXPECT_TRUE(clause.delay >= 0 &&
                            clause.delay <= maxFaultDelay)
                    << spec;
            }
            // A plan that parses also runs: a few hundred decisions on
            // every site, where UBSan catches any overflow.
            FaultInjector injector(plan, i);
            for (int round = 0; round < 200; ++round) {
                for (std::size_t s = 0; s < numFaultSites; ++s) {
                    const Ticks d =
                        injector.delay(static_cast<FaultSite>(s));
                    EXPECT_TRUE(d >= 0 && d <= maxFaultDelay) << spec;
                }
            }
        } catch (const FatalError &) {
            ++rejected;
        } catch (const std::exception &e) {
            ADD_FAILURE() << "'" << spec << "' raised " << e.what();
        } catch (...) {
            ADD_FAILURE() << "'" << spec << "' raised a non-std exception";
        }
    }
    // Both outcomes are common, so neither path goes untested.
    EXPECT_GT(parsed, 1000) << rejected;
    EXPECT_GT(rejected, 1000) << parsed;
}

// ------------------------------------------------------------- determinism

TEST(FaultInjector, SiteStreamsAreIndependent)
{
    // Consulting one site must not perturb another site's stream:
    // injector A interleaves both sites, injector B consults only
    // ipi.drop, and the ipi.drop decision sequences are identical.
    FaultPlan plan =
        FaultPlan::parse("ipi.drop@p0.5;ring.post.drop@p0.5");
    FaultInjector a(plan, 42), b(plan, 42);
    std::vector<bool> seq_a, seq_b;
    for (int i = 0; i < 200; ++i) {
        seq_a.push_back(a.decide(FaultSite::IpiDrop).fire);
        a.decide(FaultSite::RingPostDrop);
        seq_b.push_back(b.decide(FaultSite::IpiDrop).fire);
    }
    EXPECT_EQ(seq_a, seq_b);
    // And the stream is non-trivial at p=0.5.
    EXPECT_GT(a.injectedCount(FaultSite::IpiDrop), 0u);
    EXPECT_LT(a.injectedCount(FaultSite::IpiDrop), 200u);
}

TEST(FaultInjector, OccurrenceWindowFiresExactly)
{
    FaultInjector inj(FaultPlan::parse("ipi.drop@n2+3"), 7);
    std::vector<bool> fired;
    for (int i = 0; i < 6; ++i)
        fired.push_back(inj.fires(FaultSite::IpiDrop));
    EXPECT_EQ(fired, (std::vector<bool>{false, true, true, true,
                                        false, false}));
    EXPECT_EQ(inj.occurrenceCount(FaultSite::IpiDrop), 6u);
    EXPECT_EQ(inj.injectedCount(FaultSite::IpiDrop), 3u);
}

TEST(FaultInjector, SummedDelaysSaturateAtMaxFaultDelay)
{
    // Each delay parses (it is at the bound), but their sum is past
    // it. The decision saturates, so a hook point can add it to
    // simulated time.
    const FaultPlan plan =
        FaultPlan::parse("ipi.delay@p1,d1000ms;ipi.delay@p1,d1000ms");
    EXPECT_EQ(plan.clauses().at(0).delay, maxFaultDelay);
    FaultInjector inj(plan, 1);
    EXPECT_EQ(inj.delay(FaultSite::IpiDelay), maxFaultDelay);
}

// ------------------------------------------- LAPIC delivery-time bugfixes

class LapicFaultTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    CostModel costs;
};

TEST_F(LapicFaultTest, IpiResolvesRedirectAtDeliveryTime)
{
    // Regression: sendIpi used to capture the resolved destination at
    // send time, so a redirect installed while the IPI was in flight
    // (SVt enabling on the target core) was bypassed.
    Lapic a(eq, costs, 0), b(eq, costs, 1), c(eq, costs, 2);
    a.sendIpi(b, 0xfd);
    b.redirect = &c;
    eq.advanceBy(costs.ipiLatency);
    EXPECT_FALSE(b.hasPending());
    EXPECT_TRUE(c.isPending(0xfd));
}

TEST_F(LapicFaultTest, IpiRedirectionCycleCaughtAtDelivery)
{
    Lapic a(eq, costs, 0), b(eq, costs, 1), c(eq, costs, 2);
    a.sendIpi(b, 0xfd);
    b.redirect = &c;
    c.redirect = &b;
    EXPECT_THROW(eq.advanceBy(costs.ipiLatency), PanicError);
}

TEST_F(LapicFaultTest, DestructorDeschedulesInflightIpis)
{
    // Regression (crashed under ASan): the in-flight IPI event held a
    // raw pointer to the destination Lapic, and ~Lapic only
    // descheduled the tsc-deadline timer, so delivery after
    // destruction was a use-after-free.
    Lapic a(eq, costs, 0);
    {
        Lapic b(eq, costs, 1);
        a.sendIpi(b, 0xfd);
        a.sendIpi(b, 0xfe);
    }
    eq.advanceBy(costs.ipiLatency * 2);
}

TEST_F(LapicFaultTest, IpiDropFault)
{
    FaultInjector inj(FaultPlan::parse("ipi.drop@n1"), 1);
    eq.setFaultInjector(&inj);
    Lapic a(eq, costs, 0), b(eq, costs, 1);
    a.sendIpi(b, 0xfd);
    eq.advanceBy(costs.ipiLatency * 2);
    EXPECT_FALSE(b.hasPending());
    EXPECT_EQ(inj.injectedCount(FaultSite::IpiDrop), 1u);
    // Only the first IPI is lost.
    a.sendIpi(b, 0xfd);
    eq.advanceBy(costs.ipiLatency);
    EXPECT_TRUE(b.isPending(0xfd));
}

TEST_F(LapicFaultTest, IpiDelayFault)
{
    FaultInjector inj(FaultPlan::parse("ipi.delay@n1,d5us"), 1);
    eq.setFaultInjector(&inj);
    Lapic a(eq, costs, 0), b(eq, costs, 1);
    a.sendIpi(b, 0xfd);
    eq.advanceBy(costs.ipiLatency + usec(5) - 1);
    EXPECT_FALSE(b.hasPending());
    eq.advanceBy(1);
    EXPECT_TRUE(b.isPending(0xfd));
}

// ------------------------------------------------- command-ring faults

TEST(RingFault, PostDropLosesExactlyTheTargetPost)
{
    Machine machine(MachineTopology{1, 1, 2});
    machine.installFaultPlan(FaultPlan::parse("ring.post.drop@n1"));
    CommandRing ring(machine, "ring.test", 2);
    ChannelMessage msg;
    EXPECT_FALSE(ring.post(msg));
    EXPECT_FALSE(ring.hasMessage());
    EXPECT_EQ(machine.counter("fault.injected.ring.post.drop"), 1u);
    EXPECT_TRUE(ring.post(msg));
    EXPECT_TRUE(ring.hasMessage());
}

TEST(RingFault, SpuriousWakeAndDoorbellDelayAreCharged)
{
    Machine machine(MachineTopology{1, 1, 2});
    machine.installFaultPlan(FaultPlan::parse(
        "ring.wake.spurious@n1;ring.doorbell.delay@n1,d10us"));
    CommandRing ring(machine, "ring.test", 2);
    ChannelMessage msg;
    ring.post(msg);
    Ticks t0 = machine.now();
    ring.consumeWake(ChannelModel{});
    // One spurious wakeup re-arms the monitor, then the doorbell
    // lands 10us late: both show up as consumed waiter time.
    EXPECT_GE(machine.now() - t0, usec(10));
    EXPECT_EQ(machine.counter("fault.injected.ring.wake.spurious"),
              1u);
    EXPECT_EQ(machine.counter("fault.injected.ring.doorbell.delay"),
              1u);
}

// ----------------------------------------------------- virtio-path faults

TEST(VirtioFault, CompletionDelayShiftsTheCompletionEvent)
{
    Machine machine(MachineTopology{1, 1, 2});
    machine.installFaultPlan(
        FaultPlan::parse("virtio.completion.delay@n1,d50us"));
    RamDisk disk(machine, "disk");
    Ticks completed_at = -1;
    disk.setCompletionHandler([&](std::uint64_t) {
        completed_at = machine.now();
    });
    disk.submit(1, 0, 4096, false);
    machine.events().advanceBy(msec(10));
    EXPECT_EQ(completed_at, disk.serviceTime(4096, false) + usec(50));
    EXPECT_EQ(
        machine.counter("fault.injected.virtio.completion.delay"),
        1u);
}

TEST(VirtioFault, BackpressureStallsTheProducer)
{
    Machine machine(MachineTopology{1, 1, 2});
    machine.installFaultPlan(
        FaultPlan::parse("virtio.backpressure@n1"));
    Virtqueue q(machine, "q", 8);
    Ticks t0 = machine.now();
    q.post(VirtioBuffer{1, 512, 0, false});
    EXPECT_EQ(machine.counter("q.full"), 1u);
    EXPECT_GE(machine.now() - t0, machine.costs().ringFullWait);
    // The buffer was stalled, not lost.
    VirtioBuffer buf;
    EXPECT_TRUE(q.take(buf));
    EXPECT_EQ(buf.id, 1u);
}

// ----------------------------------------- posted-path delivery faults

TEST(VirtioFault, PostedPathKeepsDelayedCompletionsDeliverable)
{
    // No-lost-interrupts property (exit-elision rung 1): with posted
    // interrupts enabled, completion vectors that arrive late (every
    // disk completion delayed, IPIs jittered) must still reach L2 —
    // whether the vCPU is in guest mode (posted delivery) or halted
    // (IRR merge + conventional injection) when the notification
    // lands.
    StackConfig cfg;
    cfg.mode = VirtMode::Nested;
    cfg.postedInterrupts = true;
    NestedSystem sys(VirtMode::Nested, cfg);
    sys.machine().installFaultPlan(FaultPlan::parse(
        "virtio.completion.delay@p1,d5us;ipi.delay@p0.5,d2us"));
    RamDisk disk(sys.machine(), "ramdisk");
    VirtioBlkStack blk(sys.stack(), disk);
    int done = 0;
    blk.setCompletionHandler([&](std::uint64_t) { ++done; });
    for (int i = 0; i < 8; ++i)
        blk.submit(100 + i, i * 8, 4096, false);
    while (done < 8)
        sys.api().halt();
    EXPECT_EQ(blk.completedCount(), 8u);
    EXPECT_GT(sys.machine().counter(
                  "fault.injected.virtio.completion.delay"),
              0u);
    EXPECT_GT(sys.machine().counter("irq.posted"), 0u);
}

TEST(VirtioFault, PostedPathSurvivesDelaysWhileL2StaysBusy)
{
    // Same property with the vCPU kept in guest mode: the delayed
    // notification must take the exitless posted path rather than
    // waiting for the next natural exit (or being dropped).
    StackConfig cfg;
    cfg.mode = VirtMode::Nested;
    cfg.postedInterrupts = true;
    cfg.virtioQueues = 2;
    // Timer-dominated coalescing with a timeout past the completion
    // stream: the batch is delivered by the one-shot timer event
    // while the vCPU is busy in guest mode, which is exactly when the
    // exitless posted path engages.
    cfg.virtioCoalesceCount = 64;
    cfg.virtioCoalesceTimeout = msec(1);
    NestedSystem sys(VirtMode::Nested, cfg);
    sys.machine().installFaultPlan(
        FaultPlan::parse("virtio.completion.delay@p1,d5us"));
    RamDisk disk(sys.machine(), "ramdisk");
    VirtioBlkStack blk(sys.stack(), disk);
    int done = 0;
    blk.setCompletionHandler([&](std::uint64_t) { ++done; });
    for (int i = 0; i < 8; ++i)
        blk.submit(100 + i, i * 8, 4096, false);
    for (long spins = 0; done < 8; ++spins) {
        ASSERT_LT(spins, 2000000L) << "posted delivery lost a vector";
        sys.api().compute(usec(2));
    }
    EXPECT_EQ(blk.completedCount(), 8u);
    EXPECT_GT(sys.machine().counter("l2.exit.elided.posted"), 0u);
}

// ------------------------------------------------ watchdog state machine

MachineTopology
swSvtTopo()
{
    return MachineTopology{1, 2, 2};
}

StackConfig
swSvtConfig(bool watchdog, bool blocked_fix = true)
{
    StackConfig cfg;
    cfg.mode = VirtMode::SwSvt;
    cfg.svtBlockedFix = blocked_fix;
    cfg.svtWatchdog = watchdog;
    return cfg;
}

TEST(SvtWatchdog, ConfigRequiresSwSvtMode)
{
    StackConfig cfg = swSvtConfig(true);
    cfg.mode = VirtMode::Nested;
    EXPECT_THROW(validateStackConfig(cfg), FatalError);
    EXPECT_NO_THROW(validateStackConfig(swSvtConfig(true)));
}

TEST(SvtWatchdog, RetryRecoversADroppedTrapCommand)
{
    // The first CMD_VM_TRAP post is lost; the watchdog re-rings the
    // doorbell and the handshake completes without degrading.
    Machine machine(swSvtTopo());
    machine.installFaultPlan(FaultPlan::parse("ring.post.drop@n1"));
    VirtStack stack(machine, swSvtConfig(true));
    auto r = stack.api().cpuid(1);
    EXPECT_TRUE(r.ecx & cpuid_feature::hypervisorPresent);
    EXPECT_FALSE(stack.svtDegraded());
    EXPECT_EQ(machine.counter("svt.watchdog.retry"), 1u);
    EXPECT_EQ(machine.counter("svt.fallback"), 0u);
}

TEST(SvtWatchdog, PersistentLossDegradesThenRepromotes)
{
    // The trap post and both retries are lost: the stack degrades to
    // the conventional nested path, keeps answering correctly, and
    // re-promotes to SW SVt after the quiet period.
    Machine machine(swSvtTopo());
    machine.installFaultPlan(FaultPlan::parse("ring.post.drop@n1+3"));
    VirtStack stack(machine, swSvtConfig(true));
    auto r = stack.api().cpuid(1);
    EXPECT_TRUE(r.ecx & cpuid_feature::hypervisorPresent);
    EXPECT_TRUE(stack.svtDegraded());
    EXPECT_EQ(machine.counter("svt.fallback"), 1u);
    // Degraded operation still works (no rings involved).
    r = stack.api().cpuid(1);
    EXPECT_TRUE(r.ecx & cpuid_feature::hypervisorPresent);
    // After the quiet period the next exit re-promotes and the
    // handshake (drop window exhausted) works again.
    machine.idleUntil(machine.now() + usec(300));
    r = stack.api().cpuid(1);
    EXPECT_TRUE(r.ecx & cpuid_feature::hypervisorPresent);
    EXPECT_FALSE(stack.svtDegraded());
    EXPECT_EQ(machine.counter("svt.repromote"), 1u);
    EXPECT_EQ(machine.counter("svt.fallback"), 1u);
}

TEST(SvtWatchdog, WithoutWatchdogALostCommandDeadlocks)
{
    Machine machine(swSvtTopo());
    machine.installFaultPlan(FaultPlan::parse("ring.post.drop@n1+9"));
    VirtStack stack(machine, swSvtConfig(false));
    EXPECT_THROW(stack.api().cpuid(1), DeadlockError);
}

TEST(SvtWatchdog, DroppedResumeCommandDegradesGracefully)
{
    // The response leg (CMD_VM_RESUME, second post of the exit) is
    // lost persistently: L0 lazily syncs registers from the SVt
    // thread and degrades instead of hanging.
    Machine machine(swSvtTopo());
    machine.installFaultPlan(FaultPlan::parse("ring.post.drop@n2+9"));
    VirtStack stack(machine, swSvtConfig(true));
    auto r = stack.api().cpuid(1);
    EXPECT_TRUE(r.ecx & cpuid_feature::hypervisorPresent);
    EXPECT_TRUE(stack.svtDegraded());
    EXPECT_EQ(machine.counter("svt.fallback"), 1u);
}

// --------------------------------------- Section 5.3 degradation matrix

TEST(SvtWatchdog, Section53MatrixWithLostIpis)
{
    // Every preemption IPI is lost. Without the watchdog both
    // svtBlockedFix settings deadlock (the fix itself depends on
    // interrupt delivery); with the watchdog both degrade and
    // complete.
    for (bool blocked_fix : {false, true}) {
        Machine machine(swSvtTopo());
        machine.installFaultPlan(FaultPlan::parse("ipi.drop@p1"));
        VirtStack stack(machine, swSvtConfig(false, blocked_fix));
        stack.api().cpuid(1);
        stack.armSvtThreadPreemption(usec(30));
        EXPECT_THROW(stack.api().cpuid(1), DeadlockError)
            << "blocked_fix=" << blocked_fix;
    }
    for (bool blocked_fix : {false, true}) {
        Machine machine(swSvtTopo());
        machine.installFaultPlan(FaultPlan::parse("ipi.drop@p1"));
        VirtStack stack(machine, swSvtConfig(true, blocked_fix));
        stack.api().cpuid(1);
        stack.armSvtThreadPreemption(usec(30));
        auto r = stack.api().cpuid(1);
        EXPECT_TRUE(r.ecx & cpuid_feature::hypervisorPresent);
        EXPECT_GE(machine.counter("svt.fallback"), 1u)
            << "blocked_fix=" << blocked_fix;
        // And the stack keeps answering afterwards.
        r = stack.api().cpuid(1);
        EXPECT_TRUE(r.ecx & cpuid_feature::hypervisorPresent);
    }
}

TEST(SvtWatchdog, PreemptionWithDeliveredIpiStillUsesSvtBlocked)
{
    // No faults: the watchdog must not change the Section 5.3 fix
    // behaviour on the happy path.
    Machine machine(swSvtTopo());
    VirtStack stack(machine, swSvtConfig(true));
    stack.api().cpuid(1);
    stack.armSvtThreadPreemption(usec(30));
    auto r = stack.api().cpuid(1);
    EXPECT_TRUE(r.ecx & cpuid_feature::hypervisorPresent);
    EXPECT_EQ(machine.counter("swsvt.svt_blocked"), 1u);
    EXPECT_EQ(machine.counter("svt.fallback"), 0u);
}

// --------------------------------------------- harness-level determinism

void
faultProbeScenario(NestedSystem &sys, ScenarioResult &r)
{
    GuestApi &api = sys.api();
    for (int i = 0; i < 32; ++i)
        api.cpuid(1);
    r.record("now_usec", toUsec(sys.machine().now()));
    r.record("rng_draw",
             static_cast<double>(sys.machine().rng().next() % 100000));
}

BenchHarness
makeFaultHarness()
{
    BenchHarness bench("fault_bench", "fault harness under test");
    for (VirtMode mode : {VirtMode::Nested, VirtMode::SwSvt})
        bench.add(virtModeName(mode), mode, faultProbeScenario);
    return bench;
}

int
runHarness(BenchHarness &bench, std::vector<std::string> args)
{
    std::vector<char *> argv;
    args.insert(args.begin(), "fault_bench");
    for (std::string &a : args)
        argv.push_back(a.data());
    return bench.main(static_cast<int>(argv.size()), argv.data());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

TEST(FaultHarness, FaultRunsAreByteIdenticalAcrossJobs)
{
    const std::string spec = "ipi.delay@p0.5,d2us;"
                             "ring.wake.spurious@p0.3;"
                             "virtio.completion.delay@p0.2,d5us";
    std::string j1 = testing::TempDir() + "fault_jobs1.json";
    std::string j8 = testing::TempDir() + "fault_jobs8.json";
    std::string m1 = testing::TempDir() + "fault_jobs1_pmu.json";
    std::string m8 = testing::TempDir() + "fault_jobs8_pmu.json";
    BenchHarness bench = makeFaultHarness();
    ASSERT_EQ(runHarness(bench, {"--jobs=1", "--faults=" + spec,
                                 "--json=" + j1, "--metrics=" + m1}),
              0);
    ASSERT_EQ(runHarness(bench, {"--jobs=8", "--faults=" + spec,
                                 "--json=" + j8, "--metrics=" + m8}),
              0);
    std::string json = slurp(j1);
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json, slurp(j8));
    std::string pmu = slurp(m1);
    ASSERT_FALSE(pmu.empty());
    EXPECT_EQ(pmu, slurp(m8));
    // The plan is part of the artifact's provenance.
    EXPECT_NE(json.find("\"faults\": \"" + spec + "\""),
              std::string::npos);
    // And it actually injected something.
    EXPECT_NE(pmu.find("fault.injected."), std::string::npos);
}

TEST(FaultHarness, WatchdogFallbackSurfacesInMetricsDump)
{
    // Acceptance scenario: a nested cpuid workload with an injected
    // SVt-thread stall completes via watchdog fallback and the
    // degradation counters appear in --metrics.
    std::string path = testing::TempDir() + "fault_watchdog_pmu.json";
    BenchHarness bench("fault_watchdog_bench", "watchdog acceptance");
    bench.add("swsvt-stall", VirtMode::SwSvt, swSvtConfig(true),
              faultProbeScenario);
    ASSERT_EQ(runHarness(bench,
                         {"--faults=ring.post.drop@n1+3",
                          "--metrics=" + path}),
              0);
    std::string pmu = slurp(path);
    EXPECT_NE(pmu.find("\"svt.fallback\""), std::string::npos);
    EXPECT_NE(pmu.find("\"svt.repromote\""), std::string::npos);
    EXPECT_NE(pmu.find("\"svt.watchdog.retry\""), std::string::npos);
}

TEST(FaultHarness, RejectsMalformedFaultsFlag)
{
    BenchHarness bench = makeFaultHarness();
    EXPECT_EQ(runHarness(bench, {"--faults=bogus.site@n1"}), 2);
    EXPECT_EQ(runHarness(bench, {"--faults=ipi.delay@n1"}), 2);
}

} // namespace
} // namespace svtsim
