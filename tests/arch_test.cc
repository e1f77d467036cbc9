/**
 * @file
 * Unit tests for the arch module: hardware contexts, SMT core, local
 * APIC, machine and attribution.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/cost_model.h"
#include "arch/hw_context.h"
#include "arch/lapic.h"
#include "arch/machine.h"
#include "arch/regs.h"
#include "arch/smt_core.h"
#include "sim/log.h"

namespace svtsim {
namespace {

// ------------------------------------------------------------ hw context

TEST(HwContext, IndependentArchState)
{
    HwContext c0(0), c1(1);
    c0.writeGpr(Gpr::Rax, 1);
    c1.writeGpr(Gpr::Rax, 2);
    c0.rip = 0x1000;
    c1.rip = 0x2000;
    c0.writeCr(Ctrl::Cr3, 0xaaa);
    c1.writeCr(Ctrl::Cr3, 0xbbb);
    EXPECT_EQ(c0.readGpr(Gpr::Rax), 1u);
    EXPECT_EQ(c1.readGpr(Gpr::Rax), 2u);
    EXPECT_EQ(c0.readCr(Ctrl::Cr3), 0xaaau);
    EXPECT_EQ(c1.readCr(Ctrl::Cr3), 0xbbbu);
}

TEST(HwContext, MsrDefaultsToZero)
{
    HwContext c(0);
    EXPECT_EQ(c.rdmsr(msr::ia32Efer), 0u);
    c.wrmsr(msr::ia32Efer, 0x500);
    EXPECT_EQ(c.rdmsr(msr::ia32Efer), 0x500u);
}

TEST(HwContext, BulkGprWriteReadsBack)
{
    HwContext c(0);
    for (int i = 0; i < numGprs; ++i)
        EXPECT_EQ(c.readGpr(static_cast<Gpr>(i)), 0u) << i;
    GprValues values;
    for (int i = 0; i < numGprs; ++i)
        values[static_cast<std::size_t>(i)] = 0x1000u + i;
    c.writeGprs(values);
    EXPECT_EQ(c.readGprs(), values);
    for (int i = 0; i < numGprs; ++i)
        EXPECT_EQ(c.readGpr(static_cast<Gpr>(i)), 0x1000u + i) << i;
    // A single write after the bulk load shows up in the bulk read.
    c.writeGpr(Gpr::R9, 7);
    values[static_cast<std::size_t>(Gpr::R9)] = 7;
    EXPECT_EQ(c.readGprs(), values);
}

// -------------------------------------------------------------- smt core

class SmtCoreTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    CostModel costs;
};

TEST_F(SmtCoreTest, ConstructsContexts)
{
    SmtCore core(eq, costs, 0, 3, 0);
    EXPECT_EQ(core.numContexts(), 3);
    EXPECT_EQ(core.activeContext(), 0);
    EXPECT_EQ(core.context(2).index(), 2);
}

TEST_F(SmtCoreTest, RetargetFetchStallsAndResumes)
{
    SmtCore core(eq, costs, 0, 2, 0);
    core.retargetFetch(1);
    EXPECT_EQ(core.activeContext(), 1);
    EXPECT_TRUE(core.context(0).stalled);
    EXPECT_FALSE(core.context(1).stalled);
    core.retargetFetch(0);
    EXPECT_EQ(core.activeContext(), 0);
    EXPECT_FALSE(core.context(0).stalled);
}

TEST_F(SmtCoreTest, RetargetToSelfIsNoop)
{
    SmtCore core(eq, costs, 0, 2, 0);
    core.retargetFetch(0);
    EXPECT_EQ(core.activeContext(), 0);
    EXPECT_FALSE(core.context(0).stalled);
}

TEST_F(SmtCoreTest, InvalidContextPanics)
{
    SmtCore core(eq, costs, 0, 2, 0);
    EXPECT_THROW(core.context(2), PanicError);
    EXPECT_THROW(core.context(-1), PanicError);
    EXPECT_THROW(core.retargetFetch(5), PanicError);
    EXPECT_THROW(core.lapic(2), PanicError);
}

TEST_F(SmtCoreTest, WritesLeaveSiblingContextsUnchanged)
{
    for (int width : {2, 3}) {
        SmtCore core(eq, costs, 0, width, 0);
        // Give every context a distinct register image.
        std::vector<GprValues> images(static_cast<std::size_t>(width));
        for (int c = 0; c < width; ++c) {
            GprValues &img = images[static_cast<std::size_t>(c)];
            for (int r = 0; r < numGprs; ++r)
                img[static_cast<std::size_t>(r)] =
                    static_cast<std::uint64_t>(100 * c + r);
            core.context(c).writeGprs(img);
        }
        for (int c = 0; c < width; ++c) {
            HwContext &ctx = core.context(c);
            GprValues &img = images[static_cast<std::size_t>(c)];
            ctx.writeGpr(Gpr::Rax, 0xa0 + c);
            img[static_cast<std::size_t>(Gpr::Rax)] = 0xa0u + c;
            for (int o = 0; o < width; ++o)
                EXPECT_EQ(core.context(o).readGprs(),
                          images[static_cast<std::size_t>(o)])
                    << "width " << width << " writeGpr on " << c
                    << " checked on " << o;
            for (auto &v : img)
                v ^= 0xffff;
            ctx.writeGprs(img);
            for (int o = 0; o < width; ++o)
                EXPECT_EQ(core.context(o).readGprs(),
                          images[static_cast<std::size_t>(o)])
                    << "width " << width << " writeGprs on " << c
                    << " checked on " << o;
        }
    }
}

TEST_F(SmtCoreTest, TinyPrfRejected)
{
    // The rule is contexts x GPRs x 2: the file backs 10 contexts,
    // not 11.
    EXPECT_NO_THROW(SmtCore(eq, costs, 0, 10, 0));
    EXPECT_THROW(SmtCore(eq, costs, 0, 11, 0), FatalError);
}

TEST_F(SmtCoreTest, ZeroContextsRejected)
{
    EXPECT_THROW(SmtCore(eq, costs, 0, 0, 0), FatalError);
}

// ------------------------------------------------------------------ lapic

class LapicTest : public ::testing::Test
{
  protected:
    EventQueue eq;
    CostModel costs;
};

TEST_F(LapicTest, RaiseAndAck)
{
    Lapic apic(eq, costs, 0);
    EXPECT_FALSE(apic.hasPending());
    EXPECT_EQ(apic.ack(), -1);
    apic.raise(32);
    EXPECT_TRUE(apic.hasPending());
    EXPECT_TRUE(apic.isPending(32));
    EXPECT_EQ(apic.ack(), 32);
    EXPECT_FALSE(apic.hasPending());
}

TEST_F(LapicTest, HigherVectorWins)
{
    Lapic apic(eq, costs, 0);
    apic.raise(32);
    apic.raise(240);
    apic.raise(100);
    EXPECT_EQ(apic.highestPending(), 240);
    EXPECT_EQ(apic.ack(), 240);
    EXPECT_EQ(apic.ack(), 100);
    EXPECT_EQ(apic.ack(), 32);
}

TEST_F(LapicTest, AckCrossesWordBoundariesInPriorityOrder)
{
    Lapic apic(eq, costs, 0);
    for (int v : {64, 255, 0, 127, 63, 128})
        apic.raise(static_cast<std::uint8_t>(v));
    for (int v : {255, 128, 127, 64, 63, 0})
        EXPECT_EQ(apic.ack(), v);
    EXPECT_EQ(apic.ack(), -1);
    EXPECT_FALSE(apic.hasPending());
}

TEST_F(LapicTest, SyncPostedMergesEveryWord)
{
    Lapic apic(eq, costs, 0);
    apic.raise(200);
    EXPECT_TRUE(apic.postInterrupt(1));
    EXPECT_FALSE(apic.postInterrupt(100));
    EXPECT_FALSE(apic.postInterrupt(250));
    EXPECT_TRUE(apic.hasPosted());
    EXPECT_FALSE(apic.isPending(100));
    EXPECT_EQ(apic.syncPosted(), 3);
    EXPECT_FALSE(apic.hasPosted());
    for (int v : {250, 200, 100, 1})
        EXPECT_EQ(apic.ack(), v);
    EXPECT_EQ(apic.ack(), -1);
    // The sync cleared the outstanding notification.
    EXPECT_TRUE(apic.postInterrupt(5));
}

TEST_F(LapicTest, IpiArrivesAfterLatency)
{
    Lapic a(eq, costs, 0), b(eq, costs, 1);
    a.sendIpi(b, 0xfd);
    EXPECT_FALSE(b.hasPending());
    eq.advanceBy(costs.ipiLatency - 1);
    EXPECT_FALSE(b.hasPending());
    eq.advanceBy(1);
    EXPECT_TRUE(b.isPending(0xfd));
}

TEST_F(LapicTest, ExternalRedirection)
{
    // SVt steers external interrupts to the hypervisor context.
    Lapic vm(eq, costs, 0), visor(eq, costs, 1);
    vm.redirect = &visor;
    vm.assertExternal(33);
    EXPECT_FALSE(vm.hasPending());
    EXPECT_TRUE(visor.isPending(33));
}

TEST_F(LapicTest, RedirectionChainFollowed)
{
    Lapic a(eq, costs, 0), b(eq, costs, 1), c(eq, costs, 2);
    a.redirect = &b;
    b.redirect = &c;
    a.assertExternal(40);
    EXPECT_TRUE(c.isPending(40));
}

TEST_F(LapicTest, RedirectionCyclePanics)
{
    Lapic a(eq, costs, 0), b(eq, costs, 1);
    a.redirect = &b;
    b.redirect = &a;
    EXPECT_THROW(a.assertExternal(40), PanicError);
}

TEST_F(LapicTest, TscDeadlineFiresAtDeadline)
{
    Lapic apic(eq, costs, 0);
    apic.armTscDeadline(usec(10), 0xef);
    EXPECT_TRUE(apic.tscDeadlineArmed());
    eq.advanceTo(usec(10) - 1);
    EXPECT_FALSE(apic.isPending(0xef));
    eq.advanceBy(1);
    EXPECT_TRUE(apic.isPending(0xef));
    EXPECT_FALSE(apic.tscDeadlineArmed());
}

TEST_F(LapicTest, TscDeadlineInPastFiresImmediately)
{
    Lapic apic(eq, costs, 0);
    eq.advanceTo(usec(100));
    apic.armTscDeadline(usec(50), 0xef);
    EXPECT_TRUE(apic.isPending(0xef));
    EXPECT_FALSE(apic.tscDeadlineArmed());
}

TEST_F(LapicTest, RearmReplacesDeadline)
{
    Lapic apic(eq, costs, 0);
    apic.armTscDeadline(usec(10), 0xef);
    apic.armTscDeadline(usec(20), 0xef);
    eq.advanceTo(usec(15));
    EXPECT_FALSE(apic.isPending(0xef));
    eq.advanceTo(usec(20));
    EXPECT_TRUE(apic.isPending(0xef));
}

TEST_F(LapicTest, CancelDisarms)
{
    Lapic apic(eq, costs, 0);
    apic.armTscDeadline(usec(10), 0xef);
    apic.cancelTscDeadline();
    EXPECT_FALSE(apic.tscDeadlineArmed());
    eq.advanceTo(usec(20));
    EXPECT_FALSE(apic.isPending(0xef));
}

// ---------------------------------------------------------------- machine

TEST(Machine, TopologyBuildsCores)
{
    Machine m(MachineTopology{2, 8, 2});
    EXPECT_EQ(m.numCores(), 16);
    EXPECT_EQ(m.core(0).numaNode(), 0);
    EXPECT_EQ(m.core(8).numaNode(), 1);
    EXPECT_EQ(m.core(3).numContexts(), 2);
}

TEST(Machine, InvalidTopologyRejected)
{
    EXPECT_THROW(Machine(MachineTopology{0, 1, 1}), FatalError);
    EXPECT_THROW(Machine(MachineTopology{1, 1, 0}), FatalError);
}

TEST(Machine, CoreIndexChecked)
{
    Machine m(MachineTopology{1, 2, 2});
    EXPECT_THROW(m.core(2), PanicError);
}

TEST(Machine, ConsumeAdvancesTime)
{
    Machine m(MachineTopology{1, 1, 2});
    m.consume(usec(3));
    EXPECT_EQ(m.now(), usec(3));
    EXPECT_THROW(m.consume(-1), PanicError);
}

TEST(Machine, AttributionSingleScope)
{
    Machine m(MachineTopology{1, 1, 2});
    {
        TimeScope scope(m, ScopeId::StageL0Handler);
        m.consume(nsec(100));
    }
    m.consume(nsec(50));
    EXPECT_EQ(m.scopeTotal(ScopeId::StageL0Handler), nsec(100));
    EXPECT_EQ(m.scopeTotal(ScopeId::StageTransform), 0);
}

TEST(Machine, AttributionNestedScopesBothAccrue)
{
    Machine m(MachineTopology{1, 1, 2});
    {
        TimeScope outer(m, ScopeId::ExitCpuid);
        m.consume(nsec(10));
        {
            TimeScope inner(m, ScopeId::StageTransform);
            m.consume(nsec(5));
        }
    }
    EXPECT_EQ(m.scopeTotal(ScopeId::ExitCpuid), nsec(15));
    EXPECT_EQ(m.scopeTotal(ScopeId::StageTransform), nsec(5));
}

TEST(Machine, IdleTimeNotAttributed)
{
    Machine m(MachineTopology{1, 1, 2});
    TimeScope scope(m, ScopeId::StageL2);
    m.idleUntil(usec(10));
    EXPECT_EQ(m.scopeTotal(ScopeId::StageL2), 0);
    EXPECT_EQ(m.now(), usec(10));
}

TEST(Machine, ResetAttributionClears)
{
    Machine m(MachineTopology{1, 1, 2});
    {
        TimeScope scope(m, ScopeId::StageChannel);
        m.consume(nsec(10));
    }
    m.resetAttribution();
    EXPECT_EQ(m.scopeTotal(ScopeId::StageChannel), 0);
}

TEST(Machine, ScopeTotalCountsOpenScopesIncludingRepeatedId)
{
    Machine m(MachineTopology{1, 1, 2});
    TimeScope outer(m, ScopeId::StageL2);
    m.consume(nsec(10));
    EXPECT_EQ(m.scopeTotal(ScopeId::StageL2), nsec(10));
    {
        TimeScope exit(m, ScopeId::ExitCpuid);
        TimeScope inner(m, ScopeId::StageL2);
        m.consume(nsec(5));
        // Both open StageL2 instances accrue the 5 ns.
        EXPECT_EQ(m.scopeTotal(ScopeId::StageL2), nsec(20));
        EXPECT_EQ(m.scopeTotal(ScopeId::ExitCpuid), nsec(5));
    }
    EXPECT_EQ(m.scopeTotal(ScopeId::StageL2), nsec(20));
    m.consume(nsec(1));
    EXPECT_EQ(m.scopeTotal(ScopeId::StageL2), nsec(21));
    EXPECT_EQ(m.scopeTotal(ScopeId::ExitCpuid), nsec(5));
}

TEST(Machine, ResetAttributionWithOpenScopeKeepsOnlyLaterTicks)
{
    Machine m(MachineTopology{1, 1, 2});
    {
        TimeScope scope(m, ScopeId::StageL0Handler);
        m.consume(nsec(30));
        m.resetAttribution();
        EXPECT_EQ(m.scopeTotal(ScopeId::StageL0Handler), 0);
        m.consume(nsec(4));
        EXPECT_EQ(m.scopeTotal(ScopeId::StageL0Handler), nsec(4));
    }
    EXPECT_EQ(m.scopeTotal(ScopeId::StageL0Handler), nsec(4));
    {
        TimeScope again(m, ScopeId::StageL0Handler);
        m.consume(nsec(2));
    }
    EXPECT_EQ(m.scopeTotal(ScopeId::StageL0Handler), nsec(6));
}

TEST(Machine, ScopeUnwoundByExceptionKeepsItsTicks)
{
    Machine m(MachineTopology{1, 1, 2});
    EXPECT_THROW(
        {
            TimeScope scope(m, ScopeId::StageChannel);
            m.consume(nsec(7));
            throw std::runtime_error("unwind");
        },
        std::runtime_error);
    EXPECT_EQ(m.scopeTotal(ScopeId::StageChannel), nsec(7));
    // The unwound scope is closed: later time does not accrue to it.
    m.consume(nsec(3));
    EXPECT_EQ(m.scopeTotal(ScopeId::StageChannel), nsec(7));
    EXPECT_THROW(m.popScope(), PanicError);
}

TEST(Machine, SnapshotMidScopeIncludesOpenTicks)
{
    Machine m(MachineTopology{1, 1, 2});
    TimeScope outer(m, ScopeId::ExitCpuid);
    TimeScope stage(m, ScopeId::StageTransform);
    m.consume(nsec(9));
    MetricsSnapshot snap = m.snapshotMetrics();
    const std::vector<std::pair<std::string, Ticks>> expected = {
        {"exit.CPUID", nsec(9)},
        {"stage.transform", nsec(9)},
    };
    EXPECT_EQ(snap.scopes, expected);
}

TEST(Machine, ScopeTableNamesStagesAndExitReasons)
{
    EXPECT_STREQ(scopeName(ScopeId::StageL2), "stage.l2");
    EXPECT_STREQ(scopeName(ScopeId::StageSvtWatchdog),
                 "stage.svt_watchdog");
    EXPECT_EQ(exitScope(ExitReason::Cpuid), ScopeId::ExitCpuid);
    for (std::size_t i = 0; i < numExitReasons; ++i) {
        auto reason = static_cast<ExitReason>(i);
        EXPECT_EQ(std::string(scopeName(exitScope(reason))),
                  std::string("exit.") + exitReasonName(reason));
    }
}

TEST(Machine, SnapshotListsNonZeroScopesByName)
{
    Machine m(MachineTopology{1, 1, 2});
    for (ScopeId id : {ScopeId::StageTransform, ScopeId::ExitCpuid,
                       ScopeId::StageL0Handler}) {
        TimeScope scope(m, id);
        m.consume(nsec(1));
    }
    {
        TimeScope empty(m, ScopeId::StageL2);
    }
    MetricsSnapshot snap = m.snapshotMetrics();
    const std::vector<std::pair<std::string, Ticks>> expected = {
        {"exit.CPUID", nsec(1)},
        {"stage.l0_handler", nsec(1)},
        {"stage.transform", nsec(1)},
    };
    EXPECT_EQ(snap.scopes, expected);
}

TEST(Machine, PopWithoutPushPanics)
{
    Machine m(MachineTopology{1, 1, 2});
    EXPECT_THROW(m.popScope(), PanicError);
}

TEST(Machine, CountersAccumulate)
{
    Machine m(MachineTopology{1, 1, 2});
    // counter() reads the PMU registry by name: the key must have been
    // interned by some component first.
    Counter cpuid =
        m.metrics().counter(MetricScope::Machine, "test", "exit:CPUID");
    m.metrics().counter(MetricScope::Machine, "test", "exit:HLT");
    cpuid.inc();
    cpuid.inc(4);
    EXPECT_EQ(m.counter("exit:CPUID"), 5u);
    EXPECT_EQ(m.counter("exit:HLT"), 0u);
    m.resetCounters();
    EXPECT_EQ(m.counter("exit:CPUID"), 0u);
}

TEST(Machine, CountOfUnregisteredKeyThrows)
{
    Machine m(MachineTopology{1, 1, 2});
    EXPECT_THROW(m.counter("no.such.metric"), FatalError);
}

TEST(Machine, ConsumeRunsDueEvents)
{
    Machine m(MachineTopology{1, 1, 2});
    bool fired = false;
    m.events().scheduleIn(nsec(10), [&] { fired = true; });
    m.consume(nsec(20));
    EXPECT_TRUE(fired);
}

TEST(CostModel, CycleMatchesFrequency)
{
    CostModel costs;
    costs.freqGhz = 2.0;
    EXPECT_EQ(costs.cycle(), 500);
}

} // namespace
} // namespace svtsim
