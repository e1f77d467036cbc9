/**
 * @file
 * Unit tests for the virt module: VMCS fields, EPT, VMX engine and
 * shadow-VMCS behaviour.
 */

#include <gtest/gtest.h>

#include "arch/exit_reason.h"
#include "arch/machine.h"
#include "sim/log.h"
#include "virt/ept.h"
#include "virt/vmcs.h"
#include "virt/vmx.h"

namespace svtsim {
namespace {

// ------------------------------------------------------------------ vmcs

TEST(Vmcs, ReadWriteRoundTrip)
{
    Vmcs vmcs("vmcs01");
    vmcs.write(VmcsField::GuestRip, 0x1234);
    EXPECT_EQ(vmcs.read(VmcsField::GuestRip), 0x1234u);
    EXPECT_EQ(vmcs.name(), "vmcs01");
}

TEST(Vmcs, SvtFieldsStartInvalid)
{
    Vmcs vmcs("v");
    EXPECT_EQ(vmcs.read(VmcsField::SvtVisor), svtInvalidContext);
    EXPECT_EQ(vmcs.read(VmcsField::SvtVm), svtInvalidContext);
    EXPECT_EQ(vmcs.read(VmcsField::SvtNested), svtInvalidContext);
}

TEST(Vmcs, LaunchStateTransitions)
{
    Vmcs vmcs("v");
    EXPECT_EQ(vmcs.state(), Vmcs::State::Clear);
    vmcs.setState(Vmcs::State::Launched);
    EXPECT_EQ(vmcs.state(), Vmcs::State::Launched);
}

TEST(Vmcs, RecordAndReadExitInfo)
{
    Vmcs vmcs("v");
    ExitInfo info;
    info.reason = ExitReason::EptMisconfig;
    info.qualification = 0x77;
    info.guestPhysAddr = 0xfee00000;
    info.instrLength = 3;
    info.vector = 42;
    vmcs.recordExit(info);
    ExitInfo back = vmcs.exitInfo();
    EXPECT_EQ(back.reason, ExitReason::EptMisconfig);
    EXPECT_EQ(back.qualification, 0x77u);
    EXPECT_EQ(back.guestPhysAddr, 0xfee00000u);
    EXPECT_EQ(back.instrLength, 3u);
    EXPECT_EQ(back.vector, 42);
}

TEST(Vmcs, FieldClassification)
{
    EXPECT_EQ(vmcsFieldClass(VmcsField::GuestRip),
              VmcsFieldClass::GuestState);
    EXPECT_EQ(vmcsFieldClass(VmcsField::HostRip),
              VmcsFieldClass::HostState);
    EXPECT_EQ(vmcsFieldClass(VmcsField::EptPointer),
              VmcsFieldClass::Control);
    EXPECT_EQ(vmcsFieldClass(VmcsField::ExitReasonField),
              VmcsFieldClass::ExitInfo);
    EXPECT_EQ(vmcsFieldClass(VmcsField::SvtVm), VmcsFieldClass::Svt);
}

TEST(Vmcs, AddressFields)
{
    EXPECT_TRUE(vmcsFieldIsAddress(VmcsField::EptPointer));
    EXPECT_TRUE(vmcsFieldIsAddress(VmcsField::MsrBitmap));
    EXPECT_TRUE(vmcsFieldIsAddress(VmcsField::IoBitmapA));
    EXPECT_FALSE(vmcsFieldIsAddress(VmcsField::GuestRip));
    EXPECT_FALSE(vmcsFieldIsAddress(VmcsField::ExitReasonField));
}

TEST(Vmcs, ShadowableFields)
{
    // Simple guest state and exit info shadow; addresses, injection
    // and SVt context ids never do (Section 2.1's "limited benefits").
    EXPECT_TRUE(vmcsFieldIsShadowable(VmcsField::GuestRip));
    EXPECT_TRUE(vmcsFieldIsShadowable(VmcsField::ExitReasonField));
    EXPECT_FALSE(vmcsFieldIsShadowable(VmcsField::EptPointer));
    EXPECT_FALSE(vmcsFieldIsShadowable(VmcsField::EntryIntrInfo));
    EXPECT_FALSE(vmcsFieldIsShadowable(VmcsField::SvtVm));
    EXPECT_FALSE(vmcsFieldIsShadowable(VmcsField::HostRip));
}

TEST(Vmcs, EveryFieldHasNameAndClass)
{
    for (std::size_t i = 0; i < numVmcsFields; ++i) {
        auto f = static_cast<VmcsField>(i);
        EXPECT_STRNE(vmcsFieldName(f), "INVALID");
        EXPECT_NO_THROW(vmcsFieldClass(f));
    }
}

TEST(Vmcs, WriteCountTracksDirtyState)
{
    Vmcs vmcs("v");
    auto before = vmcs.writeCount();
    vmcs.write(VmcsField::GuestRsp, 1);
    vmcs.write(VmcsField::GuestRsp, 2);
    EXPECT_EQ(vmcs.writeCount(), before + 2);
}

TEST(Vmcs, ClassCopyMatchesPerFieldWrites)
{
    Vmcs src("src");
    for (std::size_t i = 0; i < numVmcsFields; ++i)
        src.write(static_cast<VmcsField>(i), 0x100 + i);
    for (VmcsFieldClass cls :
         {VmcsFieldClass::GuestState, VmcsFieldClass::HostState,
          VmcsFieldClass::Control, VmcsFieldClass::ExitInfo,
          VmcsFieldClass::Svt}) {
        Vmcs bulk("bulk"), loop("loop");
        bulk.copyClassFrom(src, cls);
        for (std::size_t i = 0; i < numVmcsFields; ++i) {
            auto f = static_cast<VmcsField>(i);
            if (vmcsFieldClass(f) == cls)
                loop.write(f, src.read(f));
        }
        EXPECT_EQ(bulk.writeCount(), loop.writeCount());
        for (std::size_t i = 0; i < numVmcsFields; ++i) {
            auto f = static_cast<VmcsField>(i);
            EXPECT_EQ(bulk.read(f), loop.read(f)) << vmcsFieldName(f);
        }
    }
}

// ------------------------------------------------------------------- ept

TEST(Ept, TranslateMappedPage)
{
    Ept ept("ept02");
    ept.map(0x1000, 0x80000, EptPerms{}, 2);
    auto r = ept.translate(0x1234, EptAccess::Read);
    EXPECT_EQ(r.kind, Ept::Result::Kind::Ok);
    EXPECT_EQ(r.hpa, 0x80234u);
    EXPECT_EQ(r.levelsWalked, 4);
    auto r2 = ept.translate(0x2000, EptAccess::Write);
    EXPECT_EQ(r2.kind, Ept::Result::Kind::Ok);
    EXPECT_EQ(r2.hpa, 0x81000u);
}

TEST(Ept, UnmappedIsViolation)
{
    Ept ept("e");
    EXPECT_EQ(ept.translate(0x5000, EptAccess::Read).kind,
              Ept::Result::Kind::Violation);
}

TEST(Ept, PermissionViolation)
{
    Ept ept("e");
    EptPerms ro{true, false, true};
    ept.map(0x1000, 0x2000, ro);
    EXPECT_EQ(ept.translate(0x1000, EptAccess::Read).kind,
              Ept::Result::Kind::Ok);
    EXPECT_EQ(ept.translate(0x1000, EptAccess::Write).kind,
              Ept::Result::Kind::Violation);
    EXPECT_EQ(ept.translate(0x1000, EptAccess::Exec).kind,
              Ept::Result::Kind::Ok);
}

TEST(Ept, MmioIsMisconfig)
{
    Ept ept("e");
    ept.markMmio(0xfe000000, 1);
    EXPECT_EQ(ept.translate(0xfe000123, EptAccess::Write).kind,
              Ept::Result::Kind::Misconfig);
}

TEST(Ept, UnmapRestoresViolation)
{
    Ept ept("e");
    ept.map(0x1000, 0x2000);
    ept.unmap(0x1000);
    EXPECT_EQ(ept.translate(0x1000, EptAccess::Read).kind,
              Ept::Result::Kind::Violation);
    EXPECT_EQ(ept.mappedPages(), 0u);
}

TEST(Ept, AlignmentEnforced)
{
    Ept ept("e");
    EXPECT_THROW(ept.map(0x1001, 0x2000), FatalError);
    EXPECT_THROW(ept.map(0x1000, 0x2001), FatalError);
    EXPECT_THROW(ept.unmap(0x10), FatalError);
    EXPECT_THROW(ept.markMmio(0x10), FatalError);
}

TEST(Ept, InvalidateCounts)
{
    Ept ept("e");
    ept.invalidate();
    ept.invalidate();
    EXPECT_EQ(ept.invalidations(), 2u);
}

// ------------------------------------------------------------ vmx engine

class VmxTest : public ::testing::Test
{
  protected:
    VmxTest()
        : machine(MachineTopology{1, 1, 2}),
          engine(machine, machine.core(0), 0), vmcs("vmcs01")
    {
    }

    /** Minimal host/guest state so entries/exits are well-formed. */
    void
    initVmcs()
    {
        vmcs.write(VmcsField::HostRip, 0xff0000);
        vmcs.write(VmcsField::HostCr3, 0x111000);
        vmcs.write(VmcsField::GuestRip, 0x400000);
        vmcs.write(VmcsField::GuestCr3, 0x222000);
    }

    Machine machine;
    VmxEngine engine;
    Vmcs vmcs;
};

TEST_F(VmxTest, VmxonOffLifecycle)
{
    EXPECT_FALSE(engine.vmxOn());
    engine.vmxon();
    EXPECT_TRUE(engine.vmxOn());
    engine.vmxoff();
    EXPECT_FALSE(engine.vmxOn());
}

TEST_F(VmxTest, DoubleVmxonPanics)
{
    engine.vmxon();
    EXPECT_THROW(engine.vmxon(), PanicError);
}

TEST_F(VmxTest, OperationsRequireVmxon)
{
    EXPECT_THROW(engine.vmptrld(&vmcs), PanicError);
    EXPECT_THROW(engine.vmxoff(), PanicError);
    EXPECT_THROW(engine.vmentry(true), PanicError);
}

TEST_F(VmxTest, VmptrldMakesCurrent)
{
    engine.vmxon();
    engine.vmptrld(&vmcs);
    EXPECT_EQ(engine.currentVmcs(), &vmcs);
    EXPECT_THROW(engine.vmptrld(nullptr), PanicError);
}

TEST_F(VmxTest, VmreadVmwriteNeedCurrentVmcs)
{
    engine.vmxon();
    EXPECT_THROW(engine.vmread(VmcsField::GuestRip), PanicError);
    EXPECT_THROW(engine.vmwrite(VmcsField::GuestRip, 1), PanicError);
}

TEST_F(VmxTest, VmwriteToExitInfoPanics)
{
    engine.vmxon();
    engine.vmptrld(&vmcs);
    EXPECT_THROW(engine.vmwrite(VmcsField::ExitReasonField, 1),
                 PanicError);
}

TEST_F(VmxTest, EntryExitRoundTripMovesState)
{
    initVmcs();
    engine.vmxon();
    engine.vmptrld(&vmcs);
    engine.vmentry(true);
    EXPECT_TRUE(engine.inGuest());
    EXPECT_EQ(engine.context().rip, 0x400000u);
    EXPECT_EQ(engine.context().readCr(Ctrl::Cr3), 0x222000u);

    // Guest runs; RIP moves.
    engine.context().rip = 0x400010;

    ExitInfo info;
    info.reason = ExitReason::Cpuid;
    info.instrLength = 2;
    engine.vmexit(info);
    EXPECT_FALSE(engine.inGuest());
    EXPECT_EQ(engine.context().rip, 0xff0000u);
    EXPECT_EQ(engine.context().readCr(Ctrl::Cr3), 0x111000u);
    EXPECT_EQ(vmcs.read(VmcsField::GuestRip), 0x400010u);
    EXPECT_EQ(vmcs.exitInfo().reason, ExitReason::Cpuid);
    EXPECT_EQ(machine.counter("vmx.exit"), 1u);
    EXPECT_EQ(machine.counter("vmx.exit.CPUID"), 1u);
}

TEST_F(VmxTest, LaunchStateMachine)
{
    initVmcs();
    engine.vmxon();
    engine.vmptrld(&vmcs);
    // Resume before launch is invalid.
    EXPECT_THROW(engine.vmentry(false), PanicError);
    engine.vmentry(true);
    EXPECT_THROW(engine.vmentry(true), PanicError); // already in guest
    engine.vmexit({ExitReason::Hlt});
    // Launch of an already-launched VMCS is invalid; resume works.
    EXPECT_THROW(engine.vmentry(true), PanicError);
    engine.vmentry(false);
    EXPECT_TRUE(engine.inGuest());
}

TEST_F(VmxTest, VmclearResetsLaunchState)
{
    initVmcs();
    engine.vmxon();
    engine.vmptrld(&vmcs);
    engine.vmentry(true);
    engine.vmexit({ExitReason::Hlt});
    engine.vmclear(&vmcs);
    EXPECT_EQ(vmcs.state(), Vmcs::State::Clear);
    EXPECT_EQ(engine.currentVmcs(), nullptr);
}

TEST_F(VmxTest, ExitOutsideGuestPanics)
{
    engine.vmxon();
    engine.vmptrld(&vmcs);
    EXPECT_THROW(engine.vmexit({ExitReason::Hlt}), PanicError);
}

TEST_F(VmxTest, VmxoffInGuestPanics)
{
    initVmcs();
    engine.vmxon();
    engine.vmptrld(&vmcs);
    engine.vmentry(true);
    EXPECT_THROW(engine.vmxoff(), PanicError);
}

TEST_F(VmxTest, EntryExitConsumeTime)
{
    initVmcs();
    engine.vmxon();
    engine.vmptrld(&vmcs);
    Ticks t0 = machine.now();
    engine.vmentry(true);
    Ticks entry = machine.now() - t0;
    EXPECT_EQ(entry, machine.costs().vmEntryHw);
    t0 = machine.now();
    engine.vmexit({ExitReason::Hlt});
    EXPECT_EQ(machine.now() - t0, machine.costs().vmExitHw);
}

TEST_F(VmxTest, HypervisorGradeGuestCostsMore)
{
    initVmcs();
    vmcs.write(VmcsField::EntryControls, entryCtlLoadHypervisorState);
    engine.vmxon();
    engine.vmptrld(&vmcs);
    Ticks t0 = machine.now();
    engine.vmentry(true);
    Ticks entry = machine.now() - t0;
    const CostModel &costs = machine.costs();
    EXPECT_EQ(entry, costs.vmEntryHw +
                         costs.msrSwitch * costs.msrSwitchCount);
}

TEST_F(VmxTest, ShadowReadHitsWithoutTrap)
{
    initVmcs();
    Vmcs shadow("vmcs12");
    shadow.write(VmcsField::ExitReasonField,
                 static_cast<std::uint64_t>(ExitReason::Cpuid));
    vmcs.setShadowLink(&shadow);
    vmcs.write(VmcsField::ProcControls2, procCtl2ShadowVmcs);
    engine.vmxon();
    engine.vmptrld(&vmcs);
    engine.vmentry(true);

    std::uint64_t value = 0;
    EXPECT_TRUE(engine.guestVmread(VmcsField::ExitReasonField, value));
    EXPECT_EQ(value, static_cast<std::uint64_t>(ExitReason::Cpuid));
    EXPECT_EQ(machine.counter("vmx.shadow_read") +
                  machine.counter("vmx.shadow_write"),
              1u);
}

TEST_F(VmxTest, ShadowWriteUpdatesShadow)
{
    initVmcs();
    Vmcs shadow("vmcs12");
    vmcs.setShadowLink(&shadow);
    vmcs.write(VmcsField::ProcControls2, procCtl2ShadowVmcs);
    engine.vmxon();
    engine.vmptrld(&vmcs);
    engine.vmentry(true);

    EXPECT_TRUE(engine.guestVmwrite(VmcsField::GuestRip, 0xabc));
    EXPECT_EQ(shadow.read(VmcsField::GuestRip), 0xabcu);
}

TEST_F(VmxTest, NonShadowableFieldMustTrap)
{
    initVmcs();
    Vmcs shadow("vmcs12");
    vmcs.setShadowLink(&shadow);
    vmcs.write(VmcsField::ProcControls2, procCtl2ShadowVmcs);
    engine.vmxon();
    engine.vmptrld(&vmcs);
    engine.vmentry(true);

    std::uint64_t value;
    EXPECT_FALSE(engine.guestVmread(VmcsField::EptPointer, value));
    EXPECT_FALSE(engine.guestVmwrite(VmcsField::EntryIntrInfo, 7));
}

TEST_F(VmxTest, ShadowingDisabledAlwaysTraps)
{
    initVmcs();
    Vmcs shadow("vmcs12");
    vmcs.setShadowLink(&shadow);
    // ProcControls2 shadow bit NOT set.
    engine.vmxon();
    engine.vmptrld(&vmcs);
    engine.vmentry(true);

    std::uint64_t value;
    EXPECT_FALSE(engine.guestVmread(VmcsField::GuestRip, value));
    EXPECT_FALSE(engine.guestVmwrite(VmcsField::GuestRip, 1));
}

TEST_F(VmxTest, GuestAccessorsOutsideGuestPanic)
{
    engine.vmxon();
    engine.vmptrld(&vmcs);
    std::uint64_t value;
    EXPECT_THROW(engine.guestVmread(VmcsField::GuestRip, value),
                 PanicError);
    EXPECT_THROW(engine.guestVmwrite(VmcsField::GuestRip, 1),
                 PanicError);
}

TEST(ExitReasonNames, AllNamed)
{
    for (std::uint16_t i = 0;
         i < static_cast<std::uint16_t>(ExitReason::NumReasons); ++i) {
        EXPECT_STRNE(exitReasonName(static_cast<ExitReason>(i)),
                     "UNKNOWN");
    }
}

} // namespace
} // namespace svtsim
