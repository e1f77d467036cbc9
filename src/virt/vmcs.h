/**
 * @file
 * VM state descriptor (VMCS in Intel terms), including the three SVt
 * fields the paper adds (Table 2).
 */

#ifndef SVTSIM_VIRT_VMCS_H
#define SVTSIM_VIRT_VMCS_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>

#include "arch/exit_reason.h"
#include "sim/compiler.h"

namespace svtsim {

/** Broad class of a VMCS field. */
enum class VmcsFieldClass
{
    GuestState,
    HostState,
    Control,
    ExitInfo,
    Svt,
};

/**
 * Every modeled VMCS field, class by class, as
 * X(enumerator, name, class, address, shadowable): a practical subset
 * of the Intel layout plus the three SVt fields (paper Table 2). The
 * one list generates the VmcsField enum and every lookup below.
 *
 * - address: holds a (guest-)physical address that a nested hypervisor
 *   translates from vmcs12 to vmcs02 (Section 2.1: "a VMCS contains
 *   many pointers to physical memory addresses").
 * - shadowable: VMCS shadowing can serve a guest access without a trap.
 *   The CPU "can only shadow some of the VMCS fields, which do not
 *   require complicated handling": addresses, entry-event injection,
 *   host state (L0's secret) and the SVt context ids always trap.
 */
#define SVTSIM_VMCS_FIELDS(X)                                             \
    X(GuestRip, "GUEST_RIP", GuestState, false, true)                     \
    X(GuestRsp, "GUEST_RSP", GuestState, false, true)                     \
    X(GuestRflags, "GUEST_RFLAGS", GuestState, false, true)               \
    X(GuestCr0, "GUEST_CR0", GuestState, false, true)                     \
    X(GuestCr3, "GUEST_CR3", GuestState, false, true)                     \
    X(GuestCr4, "GUEST_CR4", GuestState, false, true)                     \
    X(GuestEfer, "GUEST_EFER", GuestState, false, true)                   \
    X(GuestInterruptibility, "GUEST_INTERRUPTIBILITY", GuestState, false, \
      true)                                                               \
    X(GuestActivityState, "GUEST_ACTIVITY_STATE", GuestState, false,      \
      true)                                                               \
    X(GuestPendingDbg, "GUEST_PENDING_DBG", GuestState, false, true)      \
    X(HostRip, "HOST_RIP", HostState, false, false)                       \
    X(HostRsp, "HOST_RSP", HostState, false, false)                       \
    X(HostCr0, "HOST_CR0", HostState, false, false)                       \
    X(HostCr3, "HOST_CR3", HostState, false, false)                       \
    X(HostCr4, "HOST_CR4", HostState, false, false)                       \
    X(HostEfer, "HOST_EFER", HostState, false, false)                     \
    X(PinControls, "PIN_CONTROLS", Control, false, true)                  \
    X(ProcControls, "PROC_CONTROLS", Control, false, true)                \
    X(ProcControls2, "PROC_CONTROLS2", Control, false, true)              \
    X(ExitControls, "EXIT_CONTROLS", Control, false, true)                \
    X(EntryControls, "ENTRY_CONTROLS", Control, false, true)              \
    X(ExceptionBitmap, "EXCEPTION_BITMAP", Control, false, true)          \
    X(IoBitmapA, "IO_BITMAP_A", Control, true, false)                     \
    X(IoBitmapB, "IO_BITMAP_B", Control, true, false)                     \
    X(MsrBitmap, "MSR_BITMAP", Control, true, false)                      \
    X(EptPointer, "EPT_POINTER", Control, true, false)                    \
    X(VmcsLinkPointer, "VMCS_LINK_POINTER", Control, true, false)         \
    X(TscOffset, "TSC_OFFSET", Control, false, true)                      \
    X(PreemptionTimerValue, "PREEMPTION_TIMER_VALUE", Control, false,     \
      true)                                                               \
    X(EntryIntrInfo, "ENTRY_INTR_INFO", Control, false, false)            \
    X(EntryIntrErrCode, "ENTRY_INTR_ERR_CODE", Control, false, false)     \
    X(EntryInstrLen, "ENTRY_INSTR_LEN", Control, false, false)            \
    X(ExitReasonField, "EXIT_REASON", ExitInfo, false, true)              \
    X(ExitQualification, "EXIT_QUALIFICATION", ExitInfo, false, true)     \
    X(GuestPhysAddr, "GUEST_PHYS_ADDR", ExitInfo, false, true)            \
    X(GuestLinearAddr, "GUEST_LINEAR_ADDR", ExitInfo, false, true)        \
    X(ExitIntrInfo, "EXIT_INTR_INFO", ExitInfo, false, true)              \
    X(ExitIntrErrCode, "EXIT_INTR_ERR_CODE", ExitInfo, false, true)       \
    X(ExitInstrLen, "EXIT_INSTR_LEN", ExitInfo, false, true)              \
    X(ExitInstrInfo, "EXIT_INSTR_INFO", ExitInfo, false, true)            \
    X(SvtVisor, "SVT_VISOR", Svt, false, false)                           \
    X(SvtVm, "SVT_VM", Svt, false, false)                                 \
    X(SvtNested, "SVT_NESTED", Svt, false, false)

/** VMCS fields modeled by the simulator (see SVTSIM_VMCS_FIELDS). */
enum class VmcsField : std::uint16_t
{
#define SVTSIM_VMCS_FIELD_ENUM(field, name, cls, address, shadowable) field,
    SVTSIM_VMCS_FIELDS(SVTSIM_VMCS_FIELD_ENUM)
#undef SVTSIM_VMCS_FIELD_ENUM
    NumFields,
};

/** Number of modeled VMCS fields. */
constexpr std::size_t numVmcsFields =
    static_cast<std::size_t>(VmcsField::NumFields);

/** One row of SVTSIM_VMCS_FIELDS. */
struct VmcsFieldInfo
{
    const char *name;
    VmcsFieldClass cls;
    bool address;
    bool shadowable;
};

/** Indexed by VmcsField. An out-of-range field reads the last row,
 *  which shadows nothing, so its access traps to a panicking read. */
inline constexpr VmcsFieldInfo vmcsFieldTable[numVmcsFields + 1] = {
#define SVTSIM_VMCS_FIELD_INFO(field, name, cls, address, shadowable)     \
    {name, VmcsFieldClass::cls, address, shadowable},
    SVTSIM_VMCS_FIELDS(SVTSIM_VMCS_FIELD_INFO)
#undef SVTSIM_VMCS_FIELD_INFO
    {"INVALID", VmcsFieldClass::Control, false, false},
};

/** The row of @p field. */
constexpr const VmcsFieldInfo &
vmcsFieldInfo(VmcsField field)
{
    return vmcsFieldTable[std::min(static_cast<std::size_t>(field),
                                   numVmcsFields)];
}

/** Classify a field. */
constexpr VmcsFieldClass
vmcsFieldClass(VmcsField field)
{
    return vmcsFieldInfo(field).cls;
}

/** Field name for diagnostics. */
constexpr const char *
vmcsFieldName(VmcsField field)
{
    return vmcsFieldInfo(field).name;
}

/** Whether a field holds an address (see SVTSIM_VMCS_FIELDS). */
constexpr bool
vmcsFieldIsAddress(VmcsField field)
{
    return vmcsFieldInfo(field).address;
}

/** Whether shadowing serves a field at all (see SVTSIM_VMCS_FIELDS). */
constexpr bool
vmcsFieldIsShadowable(VmcsField field)
{
    return vmcsFieldInfo(field).shadowable;
}

/**
 * The one shadowing rule of both L1 paths (a VMX engine's shadow VMCS
 * and an SVt context's shadowed vmcs12): whether hardware VMCS
 * shadowing serves a guest vmread (@p write false) or vmwrite of
 * @p field without a trap. Exit information is shadow-readable but
 * read-only, so a write to it traps.
 */
constexpr bool
vmcsFieldShadows(VmcsField field, bool write)
{
    const VmcsFieldInfo &info = vmcsFieldInfo(field);
    return info.shadowable &&
           !(write && info.cls == VmcsFieldClass::ExitInfo);
}

/** Distinct invalid value for the SVt context fields (Section 4). */
constexpr std::uint64_t svtInvalidContext = ~0ULL;

/**
 * A VM state descriptor.
 *
 * Plain storage plus launch-state tracking; permission and cost
 * semantics live in VmxEngine and the hypervisor layers. The paper's
 * naming convention (vmcsNM = managed by LN, describes LM) is kept in
 * the @ref name field for diagnostics.
 */
class Vmcs
{
  public:
    /** Launch state per the VMX state machine. */
    enum class State { Clear, Launched };

    explicit Vmcs(std::string name);

    const std::string &name() const { return name_; }

    std::uint64_t
    read(VmcsField field) const
    {
        check(field);
        return values_[static_cast<std::size_t>(field)];
    }

    void
    write(VmcsField field, std::uint64_t value)
    {
        check(field);
        values_[static_cast<std::size_t>(field)] = value;
    }

    State state() const { return state_; }
    void setState(State s) { state_ = s; }

    /**
     * Shadow VMCS linked for trap-less guest vmread/vmwrite (Intel
     * VMCS shadowing). Null when shadowing is disabled.
     */
    Vmcs *shadowLink() const { return shadowLink_; }
    void setShadowLink(Vmcs *shadow) { shadowLink_ = shadow; }

    /** Copy every field of class @p cls from @p src. */
    void copyClassFrom(const Vmcs &src, VmcsFieldClass cls);

    /** Deposit hardware exit information into the exit-info fields. */
    void recordExit(const ExitInfo &info);

    /** Reconstruct exit information from the exit-info fields. */
    ExitInfo exitInfo() const;

  private:
    void
    check(VmcsField field) const
    {
        if (SVTSIM_UNLIKELY(static_cast<std::size_t>(field) >=
                            numVmcsFields))
            invalidField(field);
    }

    [[noreturn]] void invalidField(VmcsField field) const;

    std::string name_;
    std::array<std::uint64_t, numVmcsFields> values_{};
    State state_ = State::Clear;
    Vmcs *shadowLink_ = nullptr;
};

} // namespace svtsim

#endif // SVTSIM_VIRT_VMCS_H
