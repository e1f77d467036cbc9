/**
 * @file
 * VM state descriptor (VMCS in Intel terms), including the three SVt
 * fields the paper adds (Table 2).
 */

#ifndef SVTSIM_VIRT_VMCS_H
#define SVTSIM_VIRT_VMCS_H

#include <array>
#include <cstdint>
#include <string>

#include "arch/exit_reason.h"
#include "sim/compiler.h"

namespace svtsim {

/**
 * VMCS fields modeled by the simulator.
 *
 * A practical subset of the Intel layout: guest state, host state,
 * execution/entry/exit controls, read-only exit information, and the
 * three SVt extension fields.
 */
enum class VmcsField : std::uint16_t
{
    // Guest-state area.
    GuestRip,
    GuestRsp,
    GuestRflags,
    GuestCr0,
    GuestCr3,
    GuestCr4,
    GuestEfer,
    GuestInterruptibility,
    GuestActivityState,
    GuestPendingDbg,

    // Host-state area.
    HostRip,
    HostRsp,
    HostCr0,
    HostCr3,
    HostCr4,
    HostEfer,

    // Control fields.
    PinControls,
    ProcControls,
    ProcControls2,
    ExitControls,
    EntryControls,
    ExceptionBitmap,
    IoBitmapA,
    IoBitmapB,
    MsrBitmap,
    EptPointer,
    VmcsLinkPointer,
    TscOffset,
    PreemptionTimerValue,
    EntryIntrInfo,
    EntryIntrErrCode,
    EntryInstrLen,

    // Read-only exit information.
    ExitReasonField,
    ExitQualification,
    GuestPhysAddr,
    GuestLinearAddr,
    ExitIntrInfo,
    ExitIntrErrCode,
    ExitInstrLen,
    ExitInstrInfo,

    // SVt extension fields (paper Table 2).
    SvtVisor,
    SvtVm,
    SvtNested,

    NumFields,
};

/** Number of modeled VMCS fields. */
constexpr std::size_t numVmcsFields =
    static_cast<std::size_t>(VmcsField::NumFields);

/** Broad class of a VMCS field. */
enum class VmcsFieldClass
{
    GuestState,
    HostState,
    Control,
    ExitInfo,
    Svt,
};

/** Classify a field. */
VmcsFieldClass vmcsFieldClass(VmcsField field);

/** Field name for diagnostics. */
const char *vmcsFieldName(VmcsField field);

/**
 * Whether a field holds a (guest-)physical address that a nested
 * hypervisor must translate when transforming vmcs12 to vmcs02
 * (Section 2.1: "a VMCS contains many pointers to physical memory
 * addresses").
 */
bool vmcsFieldIsAddress(VmcsField field);

/**
 * Whether hardware VMCS shadowing can satisfy guest vmread/vmwrite on
 * this field without a trap. Mirrors the paper's observation that the
 * CPU "can only shadow some of the VMCS fields, which do not require
 * complicated handling": address fields, entry-event injection and the
 * SVt context fields always trap.
 */
bool vmcsFieldIsShadowable(VmcsField field);

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

    /** Copy every field of class @p cls from @p src, in field order. */
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
