#include "virt/vmcs.h"

#include <vector>

#include "sim/log.h"

namespace svtsim {

VmcsFieldClass
vmcsFieldClass(VmcsField field)
{
    switch (field) {
      case VmcsField::GuestRip:
      case VmcsField::GuestRsp:
      case VmcsField::GuestRflags:
      case VmcsField::GuestCr0:
      case VmcsField::GuestCr3:
      case VmcsField::GuestCr4:
      case VmcsField::GuestEfer:
      case VmcsField::GuestInterruptibility:
      case VmcsField::GuestActivityState:
      case VmcsField::GuestPendingDbg:
        return VmcsFieldClass::GuestState;

      case VmcsField::HostRip:
      case VmcsField::HostRsp:
      case VmcsField::HostCr0:
      case VmcsField::HostCr3:
      case VmcsField::HostCr4:
      case VmcsField::HostEfer:
        return VmcsFieldClass::HostState;

      case VmcsField::PinControls:
      case VmcsField::ProcControls:
      case VmcsField::ProcControls2:
      case VmcsField::ExitControls:
      case VmcsField::EntryControls:
      case VmcsField::ExceptionBitmap:
      case VmcsField::IoBitmapA:
      case VmcsField::IoBitmapB:
      case VmcsField::MsrBitmap:
      case VmcsField::EptPointer:
      case VmcsField::VmcsLinkPointer:
      case VmcsField::TscOffset:
      case VmcsField::PreemptionTimerValue:
      case VmcsField::EntryIntrInfo:
      case VmcsField::EntryIntrErrCode:
      case VmcsField::EntryInstrLen:
        return VmcsFieldClass::Control;

      case VmcsField::ExitReasonField:
      case VmcsField::ExitQualification:
      case VmcsField::GuestPhysAddr:
      case VmcsField::GuestLinearAddr:
      case VmcsField::ExitIntrInfo:
      case VmcsField::ExitIntrErrCode:
      case VmcsField::ExitInstrLen:
      case VmcsField::ExitInstrInfo:
        return VmcsFieldClass::ExitInfo;

      case VmcsField::SvtVisor:
      case VmcsField::SvtVm:
      case VmcsField::SvtNested:
        return VmcsFieldClass::Svt;

      case VmcsField::NumFields:
        break;
    }
    panic("vmcsFieldClass: invalid field %u",
          static_cast<unsigned>(field));
}

namespace {

/** Fields per class, in field order, so transforms never classify. */
const auto fieldsByClass = [] {
    std::array<std::vector<VmcsField>,
               static_cast<std::size_t>(VmcsFieldClass::Svt) + 1>
        lists;
    for (std::size_t i = 0; i < numVmcsFields; ++i) {
        auto f = static_cast<VmcsField>(i);
        lists[static_cast<std::size_t>(vmcsFieldClass(f))].push_back(f);
    }
    return lists;
}();

} // namespace

const char *
vmcsFieldName(VmcsField field)
{
    switch (field) {
      case VmcsField::GuestRip: return "GUEST_RIP";
      case VmcsField::GuestRsp: return "GUEST_RSP";
      case VmcsField::GuestRflags: return "GUEST_RFLAGS";
      case VmcsField::GuestCr0: return "GUEST_CR0";
      case VmcsField::GuestCr3: return "GUEST_CR3";
      case VmcsField::GuestCr4: return "GUEST_CR4";
      case VmcsField::GuestEfer: return "GUEST_EFER";
      case VmcsField::GuestInterruptibility:
        return "GUEST_INTERRUPTIBILITY";
      case VmcsField::GuestActivityState: return "GUEST_ACTIVITY_STATE";
      case VmcsField::GuestPendingDbg: return "GUEST_PENDING_DBG";
      case VmcsField::HostRip: return "HOST_RIP";
      case VmcsField::HostRsp: return "HOST_RSP";
      case VmcsField::HostCr0: return "HOST_CR0";
      case VmcsField::HostCr3: return "HOST_CR3";
      case VmcsField::HostCr4: return "HOST_CR4";
      case VmcsField::HostEfer: return "HOST_EFER";
      case VmcsField::PinControls: return "PIN_CONTROLS";
      case VmcsField::ProcControls: return "PROC_CONTROLS";
      case VmcsField::ProcControls2: return "PROC_CONTROLS2";
      case VmcsField::ExitControls: return "EXIT_CONTROLS";
      case VmcsField::EntryControls: return "ENTRY_CONTROLS";
      case VmcsField::ExceptionBitmap: return "EXCEPTION_BITMAP";
      case VmcsField::IoBitmapA: return "IO_BITMAP_A";
      case VmcsField::IoBitmapB: return "IO_BITMAP_B";
      case VmcsField::MsrBitmap: return "MSR_BITMAP";
      case VmcsField::EptPointer: return "EPT_POINTER";
      case VmcsField::VmcsLinkPointer: return "VMCS_LINK_POINTER";
      case VmcsField::TscOffset: return "TSC_OFFSET";
      case VmcsField::PreemptionTimerValue:
        return "PREEMPTION_TIMER_VALUE";
      case VmcsField::EntryIntrInfo: return "ENTRY_INTR_INFO";
      case VmcsField::EntryIntrErrCode: return "ENTRY_INTR_ERR_CODE";
      case VmcsField::EntryInstrLen: return "ENTRY_INSTR_LEN";
      case VmcsField::ExitReasonField: return "EXIT_REASON";
      case VmcsField::ExitQualification: return "EXIT_QUALIFICATION";
      case VmcsField::GuestPhysAddr: return "GUEST_PHYS_ADDR";
      case VmcsField::GuestLinearAddr: return "GUEST_LINEAR_ADDR";
      case VmcsField::ExitIntrInfo: return "EXIT_INTR_INFO";
      case VmcsField::ExitIntrErrCode: return "EXIT_INTR_ERR_CODE";
      case VmcsField::ExitInstrLen: return "EXIT_INSTR_LEN";
      case VmcsField::ExitInstrInfo: return "EXIT_INSTR_INFO";
      case VmcsField::SvtVisor: return "SVT_VISOR";
      case VmcsField::SvtVm: return "SVT_VM";
      case VmcsField::SvtNested: return "SVT_NESTED";
      case VmcsField::NumFields: break;
    }
    return "INVALID";
}

bool
vmcsFieldIsAddress(VmcsField field)
{
    switch (field) {
      case VmcsField::IoBitmapA:
      case VmcsField::IoBitmapB:
      case VmcsField::MsrBitmap:
      case VmcsField::EptPointer:
      case VmcsField::VmcsLinkPointer:
        return true;
      default:
        return false;
    }
}

bool
vmcsFieldIsShadowable(VmcsField field)
{
    if (vmcsFieldIsAddress(field))
        return false;
    switch (field) {
      // Event injection and the SVt context fields need L0-side
      // handling (virtualized context ids, injection bookkeeping).
      case VmcsField::EntryIntrInfo:
      case VmcsField::EntryIntrErrCode:
      case VmcsField::EntryInstrLen:
      case VmcsField::SvtVisor:
      case VmcsField::SvtVm:
      case VmcsField::SvtNested:
      // Host state of the shadow is L0's secret.
      case VmcsField::HostRip:
      case VmcsField::HostRsp:
      case VmcsField::HostCr0:
      case VmcsField::HostCr3:
      case VmcsField::HostCr4:
      case VmcsField::HostEfer:
        return false;
      default:
        return true;
    }
}

Vmcs::Vmcs(std::string name)
    : name_(std::move(name))
{
    values_[static_cast<std::size_t>(VmcsField::SvtVisor)] =
        svtInvalidContext;
    values_[static_cast<std::size_t>(VmcsField::SvtVm)] =
        svtInvalidContext;
    values_[static_cast<std::size_t>(VmcsField::SvtNested)] =
        svtInvalidContext;
    values_[static_cast<std::size_t>(VmcsField::VmcsLinkPointer)] = ~0ULL;
}

void
Vmcs::invalidField(VmcsField field) const
{
    panic("Vmcs %s: invalid field %u", name_.c_str(),
          static_cast<unsigned>(field));
}

void
Vmcs::copyClassFrom(const Vmcs &src, VmcsFieldClass cls)
{
    for (VmcsField f : fieldsByClass[static_cast<std::size_t>(cls)]) {
        const auto i = static_cast<std::size_t>(f);
        values_[i] = src.values_[i];
    }
}

void
Vmcs::recordExit(const ExitInfo &info)
{
    write(VmcsField::ExitReasonField,
          static_cast<std::uint64_t>(info.reason));
    write(VmcsField::ExitQualification, info.qualification);
    write(VmcsField::GuestPhysAddr, info.guestPhysAddr);
    write(VmcsField::ExitInstrLen, info.instrLength);
    write(VmcsField::ExitIntrInfo, info.vector);
    write(VmcsField::ExitInstrInfo, info.field);
    write(VmcsField::GuestLinearAddr, info.value);
}

ExitInfo
Vmcs::exitInfo() const
{
    ExitInfo info;
    info.reason = static_cast<ExitReason>(
        read(VmcsField::ExitReasonField));
    info.qualification = read(VmcsField::ExitQualification);
    info.guestPhysAddr = read(VmcsField::GuestPhysAddr);
    info.instrLength = read(VmcsField::ExitInstrLen);
    info.vector =
        static_cast<std::uint8_t>(read(VmcsField::ExitIntrInfo));
    info.field = read(VmcsField::ExitInstrInfo);
    info.value = read(VmcsField::GuestLinearAddr);
    return info;
}

} // namespace svtsim
