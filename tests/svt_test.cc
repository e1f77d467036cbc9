/**
 * @file
 * Unit tests for the SVt hardware unit: u-registers, trap/resume fetch
 * retargeting, and ctxtld/ctxtst semantics (paper Section 4, Table 2).
 */

#include <gtest/gtest.h>

#include "arch/machine.h"
#include "sim/log.h"
#include "svt/svt_unit.h"
#include "virt/vmcs.h"

namespace svtsim {
namespace {

class SvtUnitTest : public ::testing::Test
{
  protected:
    SvtUnitTest()
        : machine(MachineTopology{1, 1, 3}), unit(machine,
                                                  machine.core(0))
    {
    }

    /** Set up the Section 4 walk-through: L0 in context-0, L1 in
     *  context-1, L2 in context-2. */
    void
    setupNested()
    {
        unit.enable();
        vmcs01.write(VmcsField::SvtVisor, 0);
        vmcs01.write(VmcsField::SvtVm, 1);
        vmcs01.write(VmcsField::SvtNested, 2);
        unit.loadFromVmcs(vmcs01);
    }

    Machine machine;
    SvtUnit unit;
    Vmcs vmcs01{"vmcs01"};
    Vmcs vmcs02{"vmcs02"};
};

TEST_F(SvtUnitTest, DisabledUnitPanicsOnUse)
{
    std::uint64_t v;
    EXPECT_THROW(unit.vmResume(), PanicError);
    EXPECT_THROW(unit.vmTrap(), PanicError);
    EXPECT_THROW(unit.ctxtld(1, Gpr::Rax, v), PanicError);
    EXPECT_THROW(unit.loadFromVmcs(vmcs01), PanicError);
}

TEST_F(SvtUnitTest, EnableResetsUregs)
{
    unit.enable();
    EXPECT_TRUE(unit.enabled());
    EXPECT_EQ(unit.uregs().visor, svtInvalidContext);
    EXPECT_EQ(unit.uregs().vm, svtInvalidContext);
    EXPECT_EQ(unit.uregs().nested, svtInvalidContext);
    EXPECT_FALSE(unit.uregs().isVm);
    EXPECT_EQ(unit.uregs().current, 0u);
}

TEST_F(SvtUnitTest, VmptrldCachesFields)
{
    setupNested();
    EXPECT_EQ(unit.uregs().visor, 0u);
    EXPECT_EQ(unit.uregs().vm, 1u);
    EXPECT_EQ(unit.uregs().nested, 2u);
}

TEST_F(SvtUnitTest, ResumeRetargetsToVm)
{
    setupNested();
    unit.vmResume();
    EXPECT_EQ(unit.uregs().current, 1u);
    EXPECT_TRUE(unit.uregs().isVm);
    EXPECT_EQ(machine.core(0).activeContext(), 1);
    EXPECT_TRUE(machine.core(0).context(0).stalled);
}

TEST_F(SvtUnitTest, TrapRetargetsToVisor)
{
    setupNested();
    unit.vmResume();
    unit.vmTrap();
    EXPECT_EQ(unit.uregs().current, 0u);
    EXPECT_FALSE(unit.uregs().isVm);
    EXPECT_EQ(machine.core(0).activeContext(), 0);
    EXPECT_EQ(machine.counter("svt.switch"), 2u);
}

TEST_F(SvtUnitTest, SwitchCostIsSquashOnly)
{
    setupNested();
    Ticks t0 = machine.now();
    unit.vmResume();
    EXPECT_EQ(machine.now() - t0, machine.costs().svtSwitch);
}

TEST_F(SvtUnitTest, ResumeWithInvalidVmPanics)
{
    unit.enable();
    vmcs01.write(VmcsField::SvtVisor, 0);
    // SvtVm left invalid.
    unit.loadFromVmcs(vmcs01);
    EXPECT_THROW(unit.vmResume(), PanicError);
}

TEST_F(SvtUnitTest, TrapWithOutOfRangeVisorPanics)
{
    unit.enable();
    vmcs01.write(VmcsField::SvtVisor, 99);
    vmcs01.write(VmcsField::SvtVm, 1);
    unit.loadFromVmcs(vmcs01);
    unit.vmResume();
    EXPECT_THROW(unit.vmTrap(), PanicError);
}

// -- ctxtld/ctxtst target resolution (Section 4 semantics) -------------

TEST_F(SvtUnitTest, HostLvl1SelectsVmContext)
{
    setupNested();
    // is_vm == 0, lvl == 1 -> SVt_vm (context-1).
    EXPECT_EQ(unit.resolveTarget(1), 1);
}

TEST_F(SvtUnitTest, HostLvl2SelectsNestedContext)
{
    setupNested();
    EXPECT_EQ(unit.resolveTarget(2), 2);
}

TEST_F(SvtUnitTest, GuestLvl1SelectsNestedContext)
{
    setupNested();
    unit.vmResume(); // now is_vm == 1 (L1 executing)
    EXPECT_EQ(unit.resolveTarget(1), 2);
}

TEST_F(SvtUnitTest, InvalidCombinationsTrap)
{
    setupNested();
    EXPECT_EQ(unit.resolveTarget(0), -1);
    EXPECT_EQ(unit.resolveTarget(3), -1);
    unit.vmResume();
    // Guest lvl 2 has no mapping: deeper hierarchies are emulated.
    EXPECT_EQ(unit.resolveTarget(2), -1);
}

TEST_F(SvtUnitTest, NestedInvalidTraps)
{
    unit.enable();
    vmcs01.write(VmcsField::SvtVisor, 0);
    vmcs01.write(VmcsField::SvtVm, 1);
    // SvtNested left invalid: guest has no nested VM yet.
    unit.loadFromVmcs(vmcs01);
    unit.vmResume();
    std::uint64_t v;
    EXPECT_EQ(unit.ctxtld(1, Gpr::Rax, v), SvtUnit::Access::Trap);
}

TEST_F(SvtUnitTest, CrossContextGprReadWrite)
{
    setupNested();
    machine.core(0).context(1).writeGpr(Gpr::Rbx, 0x77);
    std::uint64_t v = 0;
    EXPECT_EQ(unit.ctxtld(1, Gpr::Rbx, v), SvtUnit::Access::Ok);
    EXPECT_EQ(v, 0x77u);
    EXPECT_EQ(unit.ctxtst(1, Gpr::Rbx, 0x88), SvtUnit::Access::Ok);
    EXPECT_EQ(machine.core(0).context(1).readGpr(Gpr::Rbx), 0x88u);
    EXPECT_EQ(machine.counter("svt.ctxtld") +
                  machine.counter("svt.ctxtst"),
              2u);
}

TEST_F(SvtUnitTest, CrossContextDoesNotDisturbOwnRegisters)
{
    setupNested();
    machine.core(0).context(0).writeGpr(Gpr::Rax, 1);
    machine.core(0).context(1).writeGpr(Gpr::Rax, 2);
    unit.ctxtst(1, Gpr::Rax, 99);
    EXPECT_EQ(machine.core(0).context(0).readGpr(Gpr::Rax), 1u);
    EXPECT_EQ(machine.core(0).context(1).readGpr(Gpr::Rax), 99u);
}

TEST_F(SvtUnitTest, CrossContextSpecialRegisters)
{
    setupNested();
    machine.core(0).context(2).rip = 0x4000;
    std::uint64_t v = 0;
    EXPECT_EQ(unit.ctxtld(2, SvtSpecialReg::Rip, v),
              SvtUnit::Access::Ok);
    EXPECT_EQ(v, 0x4000u);
    // Emulating cpuid: the hypervisor advances the subordinate RIP.
    EXPECT_EQ(unit.ctxtst(2, SvtSpecialReg::Rip, 0x4002),
              SvtUnit::Access::Ok);
    EXPECT_EQ(machine.core(0).context(2).rip, 0x4002u);

    EXPECT_EQ(unit.ctxtst(1, SvtSpecialReg::Cr3, 0xabc000),
              SvtUnit::Access::Ok);
    EXPECT_EQ(machine.core(0).context(1).readCr(Ctrl::Cr3), 0xabc000u);
}

TEST_F(SvtUnitTest, AccessCostIsCheap)
{
    setupNested();
    std::uint64_t v;
    Ticks t0 = machine.now();
    unit.ctxtld(1, Gpr::Rax, v);
    EXPECT_EQ(machine.now() - t0, machine.costs().ctxtRegAccess);
    // Orders of magnitude cheaper than a VM transition.
    EXPECT_LT(machine.costs().ctxtRegAccess * 50,
              machine.costs().vmExitHw);
}

TEST_F(SvtUnitTest, GuestAccessTrapsWhenConfigured)
{
    setupNested();
    unit.setGuestGprTrap(Gpr::Rcx, true);
    EXPECT_TRUE(unit.guestGprTraps(Gpr::Rcx));
    unit.vmResume(); // L1 executing (is_vm == 1)
    std::uint64_t v;
    EXPECT_EQ(unit.ctxtld(1, Gpr::Rcx, v), SvtUnit::Access::Trap);
    EXPECT_EQ(unit.ctxtst(1, Gpr::Rcx, 7), SvtUnit::Access::Trap);
    // Untrapped register still works.
    EXPECT_EQ(unit.ctxtld(1, Gpr::Rdx, v), SvtUnit::Access::Ok);
}

TEST_F(SvtUnitTest, HostIgnoresGuestTrapMask)
{
    setupNested();
    unit.setGuestGprTrap(Gpr::Rcx, true);
    // is_vm == 0: the host hypervisor is never subject to the mask.
    std::uint64_t v;
    EXPECT_EQ(unit.ctxtld(1, Gpr::Rcx, v), SvtUnit::Access::Ok);
}

TEST_F(SvtUnitTest, Section4WalkThrough)
{
    // Full Section 4 example: configure L1, resume, trap, reconfigure
    // for L2 via vmcs02, resume to L2.
    setupNested();

    // L0 loads L1's initial register state via ctxtst (lvl 1).
    EXPECT_EQ(unit.ctxtst(1, Gpr::Rsp, 0x7000), SvtUnit::Access::Ok);
    EXPECT_EQ(unit.ctxtst(1, SvtSpecialReg::Rip, 0x1000),
              SvtUnit::Access::Ok);

    // Start L1.
    unit.vmResume();
    EXPECT_EQ(machine.core(0).activeContext(), 1);

    // L1 (guest) reads its nested VM's registers with lvl == 1,
    // transparently reaching context-2.
    machine.core(0).context(2).writeGpr(Gpr::Rax, 0x2222);
    std::uint64_t v = 0;
    EXPECT_EQ(unit.ctxtld(1, Gpr::Rax, v), SvtUnit::Access::Ok);
    EXPECT_EQ(v, 0x2222u);

    // L1's vmresume traps to L0, which loads vmcs02 and resumes L2.
    unit.vmTrap();
    EXPECT_EQ(machine.core(0).activeContext(), 0);
    vmcs02.write(VmcsField::SvtVisor, 0);
    vmcs02.write(VmcsField::SvtVm, 2);
    unit.loadFromVmcs(vmcs02);
    unit.vmResume();
    EXPECT_EQ(machine.core(0).activeContext(), 2);
    EXPECT_TRUE(unit.uregs().isVm);

    // L2 traps; execution lands back on L0's context.
    unit.vmTrap();
    EXPECT_EQ(machine.core(0).activeContext(), 0);
}

TEST_F(SvtUnitTest, NoAdditionalPortPressure)
{
    // Structural check of the Section 4 claim that only one context
    // executes at a time: after any sequence of switches exactly one
    // context is unstalled.
    setupNested();
    unit.vmResume();
    unit.vmTrap();
    vmcs02.write(VmcsField::SvtVisor, 0);
    vmcs02.write(VmcsField::SvtVm, 2);
    unit.loadFromVmcs(vmcs02);
    unit.vmResume();
    int running = 0;
    for (int i = 0; i < machine.core(0).numContexts(); ++i)
        running += machine.core(0).context(i).stalled ? 0 : 1;
    EXPECT_EQ(running, 1);
}

TEST_F(SvtUnitTest, DisableRestoresBaseline)
{
    setupNested();
    unit.vmResume();
    unit.disable();
    EXPECT_FALSE(unit.enabled());
    EXPECT_THROW(unit.vmTrap(), PanicError);
}

TEST_F(SvtUnitTest, DisableUnstallsAllContexts)
{
    // Regression: enable() stalls every non-active context to build
    // the single-thread illusion, and disable() used to leave them
    // stalled — the core never returned to baseline SMT behavior
    // (Section 3.3 coexistence).
    setupNested();
    unit.vmResume();
    int stalled = 0;
    for (int i = 0; i < machine.core(0).numContexts(); ++i)
        stalled += machine.core(0).context(i).stalled ? 1 : 0;
    EXPECT_EQ(stalled, machine.core(0).numContexts() - 1);
    unit.disable();
    for (int i = 0; i < machine.core(0).numContexts(); ++i)
        EXPECT_FALSE(machine.core(0).context(i).stalled) << i;
}

TEST_F(SvtUnitTest, ReEnableAfterDisableRebuildsIllusion)
{
    setupNested();
    unit.disable();
    unit.enable();
    int running = 0;
    for (int i = 0; i < machine.core(0).numContexts(); ++i)
        running += machine.core(0).context(i).stalled ? 0 : 1;
    EXPECT_EQ(running, 1);
}

} // namespace
} // namespace svtsim
