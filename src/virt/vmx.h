/**
 * @file
 * The single-level hardware virtualization engine (VMX-like).
 *
 * One engine exists per hardware context. It models the architectural
 * contract the paper's baseline relies on (Section 2.1): one level of
 * virtualization in hardware, every nested exit lands in the host
 * hypervisor, and guest vmread/vmwrite traps unless satisfied by the
 * shadow VMCS.
 */

#ifndef SVTSIM_VIRT_VMX_H
#define SVTSIM_VIRT_VMX_H

#include <array>
#include <cstdint>

#include "arch/exit_reason.h"
#include "arch/machine.h"
#include "virt/vmcs.h"

namespace svtsim {

/** EntryControls bit: the guest is itself a hypervisor, so entry/exit
 *  switch the long MSR load/store lists (makes the L0<->L1 switch more
 *  expensive than L0<->L2, matching Table 1 rows 1 vs 4). */
constexpr std::uint64_t entryCtlLoadHypervisorState = 1ULL << 0;

/** ProcControls2 bit: VMCS shadowing enabled for this guest. */
constexpr std::uint64_t procCtl2ShadowVmcs = 1ULL << 1;

/** ProcControls bit: external interrupts cause VM exits. */
constexpr std::uint64_t procCtlExtIntExit = 1ULL << 2;

/**
 * Per-hardware-context VMX engine.
 *
 * All operations consume modeled time on the machine. Misuse of the
 * VMX state machine (vmread with no current VMCS, entry while in
 * guest mode, ...) raises PanicError: in this codebase the hypervisor
 * is trusted code and such states are simulator bugs.
 */
class VmxEngine
{
  public:
    /**
     * @param machine Owning machine (time and counters).
     * @param core Core this engine's context belongs to.
     * @param ctx Hardware context index within the core.
     */
    VmxEngine(Machine &machine, SmtCore &core, int ctx);

    bool vmxOn() const { return vmxOn_; }
    bool inGuest() const { return inGuest_; }
    Vmcs *currentVmcs() { return current_; }
    const Vmcs *currentVmcs() const { return current_; }
    HwContext &context() { return core_.context(ctx_); }
    SmtCore &core() { return core_; }

    // -- Root-mode operations (host hypervisor software) ---------------
    void vmxon();
    void vmxoff();

    /** Make @p vmcs current (VMPTRLD). */
    void vmptrld(Vmcs *vmcs);

    /** Clear launch state (VMCLEAR). */
    void vmclear(Vmcs *vmcs);

    /** Read a field of the current VMCS (root mode: never traps). */
    std::uint64_t vmread(VmcsField field);

    /** Write a field of the current VMCS (root mode: never traps). */
    void vmwrite(VmcsField field, std::uint64_t value);

    /**
     * Enter the guest described by the current VMCS (VMLAUNCH when
     * @p launch, else VMRESUME). Applies guest state to the hardware
     * context and charges the entry microcode cost.
     */
    void vmentry(bool launch);

    /**
     * Leave guest mode: deposit @p info in the current VMCS, save the
     * guest state, reload host state and charge exit microcode cost.
     */
    void vmexit(const ExitInfo &info);

    // -- Non-root (guest) shadow access -----------------------------------
    /**
     * A guest vmread: satisfied by the shadow VMCS without a trap when
     * shadowing is on and the field is shadowable.
     *
     * @param[out] value The value read, if no trap is needed.
     * @return True if satisfied in hardware; false if the access must
     *         trap to the host hypervisor.
     */
    bool guestVmread(VmcsField field, std::uint64_t &value);

    /** A guest vmwrite; same contract as guestVmread(). */
    bool guestVmwrite(VmcsField field, std::uint64_t value);

  private:
    /** MSR-list switch cost applicable to the current VMCS. */
    Ticks hypervisorStateSwitchCost() const;

    Machine &machine_;
    SmtCore &core_;
    int ctx_;
    bool vmxOn_ = false;
    bool inGuest_ = false;
    Vmcs *current_ = nullptr;
    /** Interned PMU handles; every engine on a machine shares the same
     *  aggregate slots (registration is idempotent on name). */
    Counter entryMetric_;
    Counter exitMetric_;
    Counter shadowReadMetric_;
    Counter shadowWriteMetric_;
    std::array<Counter, static_cast<std::size_t>(ExitReason::NumReasons)>
        exitReasonMetric_;
};

} // namespace svtsim

#endif // SVTSIM_VIRT_VMX_H
