/**
 * @file
 * System-level and calibration tests: the assembled platform, the
 * Table 1 / Figure 6 anchors, stage-accounting consistency, and
 * cross-mode invariants on the paper topology.
 */

#include <gtest/gtest.h>

#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/cross_link.h"
#include "io/virtio_net.h"
#include "sim/log.h"
#include "system/nested_system.h"
#include "workloads/microbench.h"

namespace svtsim {
namespace {

TEST(NestedSystem, PaperTopologyMatchesTable4)
{
    MachineTopology t = paperTopology(VirtMode::Nested);
    EXPECT_EQ(t.numaNodes, 2);
    EXPECT_EQ(t.coresPerNode, 8);
    EXPECT_EQ(t.threadsPerCore, 2);
    // HW SVt assumes an additional hardware context per core.
    EXPECT_EQ(paperTopology(VirtMode::HwSvt).threadsPerCore, 3);
    EXPECT_DOUBLE_EQ(CostModel{}.freqGhz, 2.4);
}

TEST(NestedSystem, BuildsEveryMode)
{
    for (VirtMode mode :
         {VirtMode::Native, VirtMode::Single, VirtMode::Nested,
          VirtMode::SwSvt, VirtMode::HwSvt}) {
        NestedSystem sys(mode);
        EXPECT_EQ(&sys.api(), &sys.stack().api());
        EXPECT_EQ(sys.machine().numCores(), 16);
    }
}

// ---------------------------------------------------- calibration anchors

TEST(Calibration, Table1StageBreakdown)
{
    // The six stages of Table 1, within 6% of the paper's numbers.
    NestedSystem sys(VirtMode::Nested);
    GuestApi &api = sys.api();
    for (int i = 0; i < 8; ++i)
        api.cpuid(1);
    Machine &m = sys.machine();
    m.resetAttribution();
    const int iters = 50;
    for (int i = 0; i < iters; ++i)
        api.cpuid(1);

    struct Anchor
    {
        ScopeId scope;
        double paper_us;
    };
    const Anchor anchors[] = {
        {ScopeId::StageL2, 0.05},
        {ScopeId::StageSwitchL2L0, 0.81},
        {ScopeId::StageTransform, 1.29},
        {ScopeId::StageL0Handler, 4.89},
        {ScopeId::StageSwitchL0L1, 1.40},
        {ScopeId::StageL1Handler, 1.96},
    };
    for (const auto &a : anchors) {
        double us = toUsec(m.scopeTotal(a.scope)) / iters;
        EXPECT_NEAR(us, a.paper_us, a.paper_us * 0.06)
            << scopeName(a.scope);
    }
}

TEST(Calibration, Figure6Anchors)
{
    auto cpuid_us = [](VirtMode mode) {
        NestedSystem sys(mode);
        return CpuidMicrobench::run(sys.machine(), sys.api())
            .meanUsec;
    };
    double l0 = cpuid_us(VirtMode::Native);
    double l2 = cpuid_us(VirtMode::Nested);
    double sw = cpuid_us(VirtMode::SwSvt);
    double hw = cpuid_us(VirtMode::HwSvt);
    EXPECT_NEAR(l0, 0.05, 0.005);
    EXPECT_NEAR(l2, 10.40, 0.55);
    EXPECT_NEAR(l2 / sw, 1.23, 0.10);
    EXPECT_NEAR(l2 / hw, 1.94, 0.15);
}

TEST(Calibration, StageAccountingCoversElapsedTime)
{
    // Every tick of a nested cpuid round is attributed to a stage.
    NestedSystem sys(VirtMode::Nested);
    GuestApi &api = sys.api();
    api.cpuid(1);
    Machine &m = sys.machine();
    m.resetAttribution();
    Ticks t0 = m.now();
    for (int i = 0; i < 20; ++i)
        api.cpuid(1);
    Ticks elapsed = m.now() - t0;
    Ticks attributed =
        m.scopeTotal(ScopeId::StageL2) +
        m.scopeTotal(ScopeId::StageSwitchL2L0) +
        m.scopeTotal(ScopeId::StageTransform) +
        m.scopeTotal(ScopeId::StageL0Handler) +
        m.scopeTotal(ScopeId::StageSwitchL0L1) +
        m.scopeTotal(ScopeId::StageL1Handler) +
        m.scopeTotal(ScopeId::StageChannel) +
        m.scopeTotal(ScopeId::StageL1Housekeeping);
    EXPECT_NEAR(static_cast<double>(attributed),
                static_cast<double>(elapsed),
                static_cast<double>(elapsed) * 0.02);
}

TEST(Calibration, SwSvtChannelTimeIsVisible)
{
    NestedSystem sys(VirtMode::SwSvt);
    GuestApi &api = sys.api();
    api.cpuid(1);
    sys.machine().resetAttribution();
    api.cpuid(1);
    EXPECT_GT(sys.machine().scopeTotal(ScopeId::StageChannel), 0);
    // The baseline L0<->L1 switch is gone in SW SVt.
    EXPECT_EQ(sys.machine().scopeTotal(ScopeId::StageSwitchL0L1), 0);
}

// ------------------------------------------------------ cross-mode sanity

TEST(System, FullIoStackRunsInEveryNestedMode)
{
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        NestedSystem sys(mode);
        CrossLink link(sys.machine(),
                       sys.machine().costs().wireLatency,
                       sys.machine().costs().linkBitsPerSec);
        VirtioNetStack net(sys.stack(), link.port(0));
        RamDisk disk(sys.machine(), "d");
        VirtioBlkStack blk(sys.stack(), disk);

        link.port(1).setReceiveHandler([&](NetPacket pkt) {
            link.port(1).send(pkt);
        });
        int rx = 0;
        net.setRxHandler([&](NetPacket) { ++rx; });
        bool io_done = false;
        blk.setCompletionHandler(
            [&](std::uint64_t) { io_done = true; });

        net.send(512, 1);
        blk.submit(7, 0, 4096, true);
        GuestApi &api = sys.api();
        while (!io_done || rx < 1)
            api.halt();
        SUCCEED() << virtModeName(mode);
    }
}

TEST(System, ExitProfileMatchesSection62Shape)
{
    // Section 6.2: EPT_MISCONFIG dominates the L0 exit-time profile
    // of I/O-heavy runs, with MSR_WRITE a distant second among MSR
    // exits (timer reprogramming).
    NestedSystem sys(VirtMode::Nested);
    CrossLink link(sys.machine(), sys.machine().costs().wireLatency,
                   sys.machine().costs().linkBitsPerSec);
    VirtioNetStack net(sys.stack(), link.port(0));
    link.port(1).setReceiveHandler(
        [&](NetPacket pkt) { link.port(1).send(pkt); });
    int rx = 0;
    net.setRxHandler([&](NetPacket) { ++rx; });
    for (int i = 0; i < 10; ++i) {
        int want = rx + 1;
        net.send(64, static_cast<std::uint64_t>(i));
        while (rx < want)
            sys.api().halt();
    }
    Machine &m = sys.machine();
    EXPECT_GT(m.scopeTotal(ScopeId::ExitEptMisconfig), 0);
    EXPECT_GT(m.scopeTotal(ScopeId::ExitWrmsr), 0);
    EXPECT_GT(m.counter("l2.exit.MSR_WRITE"), 0u);
}

TEST(System, HousekeepingMechanism)
{
    // Serial in the baseline...
    NestedSystem base(VirtMode::Nested);
    base.api().cpuid(1);
    base.stack().postL1Housekeeping(usec(40));
    Ticks t0 = base.machine().now();
    base.api().cpuid(1);
    Ticks with_hk = base.machine().now() - t0;
    t0 = base.machine().now();
    base.api().cpuid(1);
    Ticks without_hk = base.machine().now() - t0;
    EXPECT_NEAR(static_cast<double>(with_hk - without_hk),
                static_cast<double>(usec(40)),
                static_cast<double>(usec(2)));

    // ...overlapped under SW SVt (within the overlap window).
    NestedSystem svt(VirtMode::SwSvt);
    svt.api().cpuid(1);
    svt.stack().postL1Housekeeping(usec(40));
    t0 = svt.machine().now();
    svt.api().cpuid(1);
    Ticks svt_with = svt.machine().now() - t0;
    t0 = svt.machine().now();
    svt.api().cpuid(1);
    Ticks svt_without = svt.machine().now() - t0;
    EXPECT_LT(svt_with - svt_without, usec(2));
    EXPECT_EQ(svt.machine().counter("l1.housekeeping.overlapped"), 1u);
}

TEST(System, HousekeepingSpillBeyondOverlapWindow)
{
    NestedSystem svt(VirtMode::SwSvt);
    svt.api().cpuid(1);
    Ticks window = svt.machine().costs().swSvtOverlapWindow;
    svt.stack().postL1Housekeeping(window + usec(30));
    Ticks t0 = svt.machine().now();
    svt.api().cpuid(1);
    Ticks with_spill = svt.machine().now() - t0;
    t0 = svt.machine().now();
    svt.api().cpuid(1);
    Ticks base = svt.machine().now() - t0;
    EXPECT_NEAR(static_cast<double>(with_spill - base),
                static_cast<double>(usec(30)),
                static_cast<double>(usec(2)));
}

TEST(System, NegativeHousekeepingRejected)
{
    NestedSystem sys(VirtMode::Nested);
    EXPECT_THROW(sys.stack().postL1Housekeeping(-1), PanicError);
}

} // namespace
} // namespace svtsim
