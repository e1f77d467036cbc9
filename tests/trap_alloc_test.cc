/**
 * @file
 * Zero-allocation lock-in for the nested trap round: once warm, guest
 * cpuid, MSR, vmcall and port-I/O traps make no heap allocation in the
 * nested baseline, SW SVt and HW SVt. Attribution scopes are table
 * ids, the SW SVt command rings are fixed circular buffers and the
 * register/VMCS transfers copy in place, so a steady-state round only
 * touches storage it already owns.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "counting_new.h"
#include "system/nested_system.h"

namespace svtsim {
namespace {

constexpr std::uint64_t hypercallNr = 0x4b42;
constexpr std::uint16_t port = 0x510;
constexpr std::uint32_t msrIndex = 0x40000080;

/** One of each trapping guest operation; returns a result digest. */
std::uint64_t
trapMix(GuestApi &api, std::uint64_t i)
{
    std::uint64_t digest = api.cpuid(i % 2 ? 0x1 : 0x80000001).eax;
    api.wrmsr(msrIndex, i);
    digest ^= api.rdmsr(msrIndex);
    digest ^= api.vmcall(hypercallNr, i, 3);
    api.ioOut(port, i);
    digest ^= api.ioIn(port);
    return digest;
}

class TrapAlloc : public ::testing::TestWithParam<VirtMode>
{
};

TEST_P(TrapAlloc, SteadyStateRoundIsAllocationFree)
{
    NestedSystem sys(GetParam());
    GuestHypervisor &l1 = sys.stack().l1Hv();
    l1.registerHypercall(hypercallNr, [](std::uint64_t a,
                                         std::uint64_t b) {
        return a + b;
    });
    std::uint64_t portReg = 0;
    l1.registerIoPort(port, [&portReg](std::uint16_t, std::uint64_t v,
                                       bool is_write) {
        if (is_write)
            portReg = v;
        return portReg;
    });
    GuestApi &api = sys.api();
    // Warm-up: first-touch EPT fills, the L1 MSR store entry and the
    // attribution scope stack's high-water mark.
    std::uint64_t digest = 0;
    for (std::uint64_t i = 0; i < 64; ++i)
        digest ^= trapMix(api, i);

    // Read outside the allocation window: a by-name read may allocate.
    auto reflected = [&sys] {
        return sys.machine().counter("l0.reflect") +
               sys.machine().counter("l0.direct_reflect");
    };
    const std::uint64_t reflectedBefore = reflected();
    const std::uint64_t before = g_allocCount.load();
    for (std::uint64_t i = 0; i < 2000; ++i)
        digest ^= trapMix(api, i);
    const std::uint64_t after = g_allocCount.load();

    EXPECT_EQ(after - before, 0u)
        << "steady-state trap rounds allocated in "
        << virtModeName(GetParam());
    // Every operation of the mix is a reflected nested trap.
    EXPECT_EQ(reflected() - reflectedBefore, 2000u * 6);
    EXPECT_NE(digest, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllNestedModes, TrapAlloc,
    ::testing::Values(VirtMode::Nested, VirtMode::SwSvt, VirtMode::HwSvt),
    [](const ::testing::TestParamInfo<VirtMode> &info) {
        std::string name = virtModeName(info.param);
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

} // namespace
} // namespace svtsim
