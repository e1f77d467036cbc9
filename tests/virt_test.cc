/**
 * @file
 * Unit tests for the virt module: VMCS fields, EPT, VMX engine and
 * shadow-VMCS behaviour.
 */

#include <iterator>

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

TEST(Vmcs, OutOfRangeFieldPanics)
{
    Vmcs vmcs("vmcs12");
    const auto bad = static_cast<VmcsField>(numVmcsFields);
    EXPECT_THROW(vmcs.read(bad), PanicError);
    EXPECT_THROW(vmcs.write(bad, 1), PanicError);
    EXPECT_THROW(vmcs.read(static_cast<VmcsField>(0xffff)), PanicError);
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

TEST(Vmcs, FieldTableIsPinned)
{
    // Every modeled field in enum order, with its name, class, whether
    // it holds an address and whether hardware shadowing serves it.
    // Simple guest state, controls and exit info shadow; addresses,
    // entry-event injection, host state and the SVt context ids never
    // do (Section 2.1's "limited benefits").
    using C = VmcsFieldClass;
    struct Row
    {
        VmcsField field;
        const char *name;
        VmcsFieldClass cls;
        bool address;
        bool shadowable;
    };
    const Row rows[] = {
        {VmcsField::GuestRip, "GUEST_RIP", C::GuestState, false, true},
        {VmcsField::GuestRsp, "GUEST_RSP", C::GuestState, false, true},
        {VmcsField::GuestRflags, "GUEST_RFLAGS", C::GuestState, false,
         true},
        {VmcsField::GuestCr0, "GUEST_CR0", C::GuestState, false, true},
        {VmcsField::GuestCr3, "GUEST_CR3", C::GuestState, false, true},
        {VmcsField::GuestCr4, "GUEST_CR4", C::GuestState, false, true},
        {VmcsField::GuestEfer, "GUEST_EFER", C::GuestState, false, true},
        {VmcsField::GuestInterruptibility, "GUEST_INTERRUPTIBILITY",
         C::GuestState, false, true},
        {VmcsField::GuestActivityState, "GUEST_ACTIVITY_STATE",
         C::GuestState, false, true},
        {VmcsField::GuestPendingDbg, "GUEST_PENDING_DBG", C::GuestState,
         false, true},
        {VmcsField::HostRip, "HOST_RIP", C::HostState, false, false},
        {VmcsField::HostRsp, "HOST_RSP", C::HostState, false, false},
        {VmcsField::HostCr0, "HOST_CR0", C::HostState, false, false},
        {VmcsField::HostCr3, "HOST_CR3", C::HostState, false, false},
        {VmcsField::HostCr4, "HOST_CR4", C::HostState, false, false},
        {VmcsField::HostEfer, "HOST_EFER", C::HostState, false, false},
        {VmcsField::PinControls, "PIN_CONTROLS", C::Control, false, true},
        {VmcsField::ProcControls, "PROC_CONTROLS", C::Control, false,
         true},
        {VmcsField::ProcControls2, "PROC_CONTROLS2", C::Control, false,
         true},
        {VmcsField::ExitControls, "EXIT_CONTROLS", C::Control, false,
         true},
        {VmcsField::EntryControls, "ENTRY_CONTROLS", C::Control, false,
         true},
        {VmcsField::ExceptionBitmap, "EXCEPTION_BITMAP", C::Control,
         false, true},
        {VmcsField::IoBitmapA, "IO_BITMAP_A", C::Control, true, false},
        {VmcsField::IoBitmapB, "IO_BITMAP_B", C::Control, true, false},
        {VmcsField::MsrBitmap, "MSR_BITMAP", C::Control, true, false},
        {VmcsField::EptPointer, "EPT_POINTER", C::Control, true, false},
        {VmcsField::VmcsLinkPointer, "VMCS_LINK_POINTER", C::Control,
         true, false},
        {VmcsField::TscOffset, "TSC_OFFSET", C::Control, false, true},
        {VmcsField::PreemptionTimerValue, "PREEMPTION_TIMER_VALUE",
         C::Control, false, true},
        {VmcsField::EntryIntrInfo, "ENTRY_INTR_INFO", C::Control, false,
         false},
        {VmcsField::EntryIntrErrCode, "ENTRY_INTR_ERR_CODE", C::Control,
         false, false},
        {VmcsField::EntryInstrLen, "ENTRY_INSTR_LEN", C::Control, false,
         false},
        {VmcsField::ExitReasonField, "EXIT_REASON", C::ExitInfo, false,
         true},
        {VmcsField::ExitQualification, "EXIT_QUALIFICATION", C::ExitInfo,
         false, true},
        {VmcsField::GuestPhysAddr, "GUEST_PHYS_ADDR", C::ExitInfo, false,
         true},
        {VmcsField::GuestLinearAddr, "GUEST_LINEAR_ADDR", C::ExitInfo,
         false, true},
        {VmcsField::ExitIntrInfo, "EXIT_INTR_INFO", C::ExitInfo, false,
         true},
        {VmcsField::ExitIntrErrCode, "EXIT_INTR_ERR_CODE", C::ExitInfo,
         false, true},
        {VmcsField::ExitInstrLen, "EXIT_INSTR_LEN", C::ExitInfo, false,
         true},
        {VmcsField::ExitInstrInfo, "EXIT_INSTR_INFO", C::ExitInfo, false,
         true},
        {VmcsField::SvtVisor, "SVT_VISOR", C::Svt, false, false},
        {VmcsField::SvtVm, "SVT_VM", C::Svt, false, false},
        {VmcsField::SvtNested, "SVT_NESTED", C::Svt, false, false},
    };
    ASSERT_EQ(std::size(rows), 43u);
    ASSERT_EQ(numVmcsFields, std::size(rows));
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        const Row &r = rows[i];
        SCOPED_TRACE(r.name);
        EXPECT_EQ(static_cast<std::size_t>(r.field), i);
        EXPECT_STREQ(vmcsFieldName(r.field), r.name);
        EXPECT_EQ(vmcsFieldClass(r.field), r.cls);
        EXPECT_EQ(vmcsFieldIsAddress(r.field), r.address);
        EXPECT_EQ(vmcsFieldIsShadowable(r.field), r.shadowable);
    }
}

TEST(Vmcs, ShadowRuleCoversEveryFieldBothWays)
{
    // Reads shadow exactly the shadowable fields; writes shadow the
    // same fields minus exit information, which is read-only.
    int exitInfoFields = 0;
    for (std::size_t i = 0; i < numVmcsFields; ++i) {
        const auto f = static_cast<VmcsField>(i);
        SCOPED_TRACE(vmcsFieldName(f));
        const bool exitInfo = vmcsFieldClass(f) == VmcsFieldClass::ExitInfo;
        EXPECT_EQ(vmcsFieldShadows(f, /*write=*/false),
                  vmcsFieldIsShadowable(f));
        EXPECT_EQ(vmcsFieldShadows(f, /*write=*/true),
                  vmcsFieldIsShadowable(f) && !exitInfo);
        if (exitInfo) {
            ++exitInfoFields;
            EXPECT_TRUE(vmcsFieldShadows(f, /*write=*/false));
            EXPECT_FALSE(vmcsFieldShadows(f, /*write=*/true));
        }
    }
    EXPECT_EQ(exitInfoFields, 8);
    const auto bad = static_cast<VmcsField>(numVmcsFields);
    EXPECT_FALSE(vmcsFieldShadows(bad, /*write=*/false));
    EXPECT_FALSE(vmcsFieldShadows(bad, /*write=*/true));
}

TEST(Vmcs, EveryFieldHasNameAndClass)
{
    for (std::size_t i = 0; i < numVmcsFields; ++i) {
        auto f = static_cast<VmcsField>(i);
        EXPECT_STRNE(vmcsFieldName(f), "INVALID");
        EXPECT_NO_THROW(vmcsFieldClass(f));
    }
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

TEST(Ept, AlignmentEnforced)
{
    Ept ept("e");
    EXPECT_THROW(ept.map(0x1001, 0x2000), FatalError);
    EXPECT_THROW(ept.map(0x1000, 0x2001), FatalError);
    EXPECT_THROW(ept.markMmio(0x10), FatalError);
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

TEST_F(VmxTest, DoubleVmxonPanics)
{
    EXPECT_FALSE(engine.vmxOn());
    engine.vmxon();
    EXPECT_TRUE(engine.vmxOn());
    EXPECT_THROW(engine.vmxon(), PanicError);
}

TEST_F(VmxTest, OperationsRequireVmxon)
{
    EXPECT_THROW(engine.vmptrld(&vmcs), PanicError);
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

TEST_F(VmxTest, ExitOutsideGuestPanics)
{
    engine.vmxon();
    engine.vmptrld(&vmcs);
    EXPECT_THROW(engine.vmexit({ExitReason::Hlt}), PanicError);
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
    EXPECT_TRUE(engine.guestVmcsAccess(VmcsField::ExitReasonField, value,
                                       /*write=*/false));
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

    std::uint64_t value = 0xabc;
    EXPECT_TRUE(engine.guestVmcsAccess(VmcsField::GuestRip, value,
                                       /*write=*/true));
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

    std::uint64_t value = 7;
    EXPECT_FALSE(engine.guestVmcsAccess(VmcsField::EptPointer, value,
                                        /*write=*/false));
    EXPECT_FALSE(engine.guestVmcsAccess(VmcsField::EntryIntrInfo, value,
                                        /*write=*/true));
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

    std::uint64_t value = 1;
    EXPECT_FALSE(engine.guestVmcsAccess(VmcsField::GuestRip, value,
                                        /*write=*/false));
    EXPECT_FALSE(engine.guestVmcsAccess(VmcsField::GuestRip, value,
                                        /*write=*/true));
}

TEST_F(VmxTest, GuestAccessorsOutsideGuestPanic)
{
    engine.vmxon();
    engine.vmptrld(&vmcs);
    std::uint64_t value = 1;
    EXPECT_THROW(engine.guestVmcsAccess(VmcsField::GuestRip, value,
                                        /*write=*/false),
                 PanicError);
    EXPECT_THROW(engine.guestVmcsAccess(VmcsField::GuestRip, value,
                                        /*write=*/true),
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
