/**
 * @file
 * Property and parameterized tests across the whole stack:
 * determinism, cross-mode transparency under mixed I/O load,
 * monotonicity sweeps, and channel-configuration sweeps.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/cross_link.h"
#include "io/virtio_net.h"
#include "sim/log.h"
#include "system/nested_system.h"
#include "workloads/guest_os.h"
#include "workloads/microbench.h"

namespace svtsim {
namespace {

MachineTopology
topoFor(VirtMode mode)
{
    MachineTopology t{1, 2, mode == VirtMode::HwSvt ? 3 : 2};
    return t;
}


/** gtest param names may only contain [A-Za-z0-9_]. */
std::string
sanitize(std::string s)
{
    for (char &c : s)
        if (!isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return s;
}

// ------------------------------------------------------------ determinism

struct RunRecord
{
    Ticks elapsed = 0;
    std::vector<std::uint64_t> outputs;
    std::map<std::string, std::uint64_t> counters;

    bool
    operator==(const RunRecord &o) const
    {
        return elapsed == o.elapsed && outputs == o.outputs &&
               counters == o.counters;
    }
};

RunRecord
mixedWorkloadRun(VirtMode mode, std::uint64_t seed)
{
    Machine machine(topoFor(mode), CostModel{}, 1);
    StackConfig cfg;
    cfg.mode = mode;
    VirtStack stack(machine, cfg);

    CrossLink link(machine, machine.costs().wireLatency,
                   machine.costs().linkBitsPerSec);
    VirtioNetStack net(stack, link.port(0));
    link.port(1).setReceiveHandler([&](NetPacket pkt) {
        machine.events().scheduleIn(usec(3), [&link, pkt] {
            link.port(1).send(pkt);
        });
    });
    RamDisk disk(machine, "d");
    VirtioBlkStack blk(stack, disk);

    stack.l1Hv().registerHypercall(
        5, [](std::uint64_t a, std::uint64_t b) { return a ^ b; });

    std::uint64_t net_rx = 0, io_done = 0;
    net.setRxHandler([&](NetPacket) { ++net_rx; });
    blk.setCompletionHandler([&](std::uint64_t) { ++io_done; });

    GuestApi &api = stack.api();
    Rng rng(seed);
    RunRecord rec;
    Ticks t0 = machine.now();
    std::uint64_t blk_id = 1;
    for (int op = 0; op < 60; ++op) {
        switch (rng.below(7)) {
          case 0:
            rec.outputs.push_back(api.cpuid(rng.below(3)).eax);
            break;
          case 1:
            api.wrmsr(msr::ia32Star, rng.next());
            break;
          case 2:
            rec.outputs.push_back(api.rdmsr(msr::ia32Star));
            break;
          case 3: {
            std::uint64_t want = net_rx + 1;
            net.send(64 + static_cast<std::uint32_t>(rng.below(900)),
                     rng.next());
            GuestOs::idleWait(api, [&] { return net_rx >= want; });
            rec.outputs.push_back(net_rx);
            break;
          }
          case 4: {
            std::uint64_t want = io_done + 1;
            blk.submit(blk_id++, rng.below(1 << 16),
                       512 << rng.below(4), rng.chance(0.5));
            GuestOs::idleWait(api, [&] { return io_done >= want; });
            rec.outputs.push_back(io_done);
            break;
          }
          case 5:
            api.compute(usec(rng.below(40)));
            break;
          case 6:
            rec.outputs.push_back(
                api.vmcall(5, rng.below(100), rng.below(100)));
            break;
        }
    }
    rec.elapsed = machine.now() - t0;
    rec.counters = machine.counters();
    return rec;
}

TEST(Property, RunsAreDeterministic)
{
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        RunRecord a = mixedWorkloadRun(mode, 77);
        RunRecord b = mixedWorkloadRun(mode, 77);
        EXPECT_EQ(a, b) << virtModeName(mode);
    }
}

TEST(Property, MixedIoTransparentAcrossModes)
{
    for (std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
        RunRecord base = mixedWorkloadRun(VirtMode::Nested, seed);
        RunRecord sw = mixedWorkloadRun(VirtMode::SwSvt, seed);
        RunRecord hw = mixedWorkloadRun(VirtMode::HwSvt, seed);
        EXPECT_EQ(base.outputs, sw.outputs) << "seed " << seed;
        EXPECT_EQ(base.outputs, hw.outputs) << "seed " << seed;
        // SVt is never slower on the same op sequence.
        EXPECT_LE(sw.elapsed, base.elapsed) << "seed " << seed;
        EXPECT_LE(hw.elapsed, sw.elapsed) << "seed " << seed;
    }
}

TEST(Property, DirectReflectPreservesResults)
{
    auto run = [](bool bypass, std::uint64_t seed) {
        Machine machine(MachineTopology{1, 1, 3});
        StackConfig cfg;
        cfg.mode = VirtMode::HwSvt;
        cfg.svtDirectReflect = bypass;
        VirtStack stack(machine, cfg);
        stack.l1Hv().registerHypercall(
            5,
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
        Rng rng(seed);
        std::vector<std::uint64_t> out;
        for (int i = 0; i < 50; ++i) {
            switch (rng.below(3)) {
              case 0:
                out.push_back(stack.api().cpuid(rng.below(4)).eax);
                break;
              case 1:
                out.push_back(stack.api().rdmsr(msr::ia32Lstar));
                break;
              case 2:
                out.push_back(stack.api().vmcall(5, rng.below(9),
                                                 rng.below(9)));
                break;
            }
        }
        return out;
    };
    for (std::uint64_t seed : {1ULL, 2ULL}) {
        EXPECT_EQ(run(false, seed), run(true, seed))
            << "seed " << seed;
    }
}

// ----------------------------------------------- parameterized mode sweep

class ModeShadowing
    : public ::testing::TestWithParam<std::tuple<VirtMode, bool>>
{
};

TEST_P(ModeShadowing, CpuidWorksAndCostsAreOrdered)
{
    auto [mode, shadowing] = GetParam();
    Machine machine(topoFor(mode));
    StackConfig cfg;
    cfg.mode = mode;
    cfg.hwVmcsShadowing = shadowing;
    VirtStack stack(machine, cfg);
    auto r = stack.api().cpuid(1);
    EXPECT_TRUE(r.ecx & cpuid_feature::hypervisorPresent);
    EXPECT_FALSE(r.ecx & cpuid_feature::vmx);

    // Shadowing off is never faster than shadowing on.
    Machine machine_on(topoFor(mode));
    StackConfig cfg_on = cfg;
    cfg_on.hwVmcsShadowing = true;
    VirtStack stack_on(machine_on, cfg_on);
    stack.api().cpuid(1);
    stack_on.api().cpuid(1);
    Ticks t0 = machine.now();
    stack.api().cpuid(1);
    Ticks t_param = machine.now() - t0;
    t0 = machine_on.now();
    stack_on.api().cpuid(1);
    Ticks t_on = machine_on.now() - t0;
    EXPECT_GE(t_param, t_on);
}

INSTANTIATE_TEST_SUITE_P(
    AllNestedModes, ModeShadowing,
    ::testing::Combine(::testing::Values(VirtMode::Nested,
                                         VirtMode::SwSvt,
                                         VirtMode::HwSvt),
                       ::testing::Bool()),
    [](const auto &info) {
        return sanitize(
            std::string(virtModeName(std::get<0>(info.param))) +
            (std::get<1>(info.param) ? "_shadow" : "_noshadow"));
    });

// -------------------------------------------------- channel configuration

class ChannelSweep
    : public ::testing::TestWithParam<
          std::tuple<WaitMechanism, Placement>>
{
};

TEST_P(ChannelSweep, SwSvtRunsAndStaysTransparent)
{
    auto [mechanism, placement] = GetParam();
    Machine machine(topoFor(VirtMode::SwSvt));
    StackConfig cfg;
    cfg.mode = VirtMode::SwSvt;
    cfg.channel = ChannelModel{mechanism, placement};
    VirtStack stack(machine, cfg);
    auto got = stack.api().cpuid(1);

    Machine mb(topoFor(VirtMode::Nested));
    StackConfig cb;
    cb.mode = VirtMode::Nested;
    VirtStack base(mb, cb);
    EXPECT_EQ(got, base.api().cpuid(1));
}

INSTANTIATE_TEST_SUITE_P(
    AllChannels, ChannelSweep,
    ::testing::Combine(::testing::Values(WaitMechanism::Poll,
                                         WaitMechanism::Mwait,
                                         WaitMechanism::Mutex),
                       ::testing::Values(Placement::SmtSibling,
                                         Placement::SameNode,
                                         Placement::CrossNode)),
    [](const auto &info) {
        return sanitize(
            std::string(waitMechanismName(std::get<0>(info.param))) +
            "_" +
            std::string(placementName(std::get<1>(info.param))));
    });

// ------------------------------------------------- workload-size sweep

class WorkloadSize : public ::testing::TestWithParam<int>
{
};

TEST_P(WorkloadSize, MicrobenchScalesLinearly)
{
    int reg_ops = GetParam();
    NestedSystem sys(VirtMode::Nested);
    auto r = CpuidMicrobench::run(sys.machine(), sys.api(), reg_ops);
    double expected =
        10.40 + toUsec(sys.machine().costs().regOp) * reg_ops;
    EXPECT_NEAR(r.meanUsec, expected, expected * 0.06);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WorkloadSize,
                         ::testing::Values(0, 100, 1000, 10000));

// -------------------------------------------------------- halting stress

TEST(Property, RepeatedTimerSleepsStayAccurate)
{
    for (VirtMode mode :
         {VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt}) {
        Machine machine(topoFor(mode));
        StackConfig cfg;
        cfg.mode = mode;
        VirtStack stack(machine, cfg);
        GuestApi &api = stack.api();
        api.setIrqHandler(api.timerVector(), [] {});
        api.cpuid(1);
        for (int i = 0; i < 30; ++i) {
            Ticks deadline = machine.now() + usec(200);
            api.wrmsr(msr::ia32TscDeadline,
                      static_cast<std::uint64_t>(deadline));
            api.halt();
            EXPECT_GE(machine.now(), deadline);
            EXPECT_LT(machine.now(), deadline + usec(150))
                << virtModeName(mode) << " iteration " << i;
        }
    }
}

} // namespace
} // namespace svtsim
