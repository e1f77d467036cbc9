/**
 * @file
 * The guest hypervisor (L1): the KVM-like kernel that believes it runs
 * on bare hardware and services its nested VM's (L2's) traps.
 *
 * The handler logic is written once and runs identically in the
 * nested baseline, SW SVt (on the SVt-thread) and HW SVt; only how
 * the L1Backend reaches L2's state differs, which is exactly the
 * paper's claim that hypervisor changes for SVt are modest (Section
 * 5.1).
 */

#ifndef SVTSIM_HV_GUEST_HYPERVISOR_H
#define SVTSIM_HV_GUEST_HYPERVISOR_H

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "arch/cost_model.h"
#include "arch/exit_reason.h"
#include "arch/regs.h"
#include "hv/cpuid_db.h"
#include "hv/guest_api.h"
#include "virt/ept.h"
#include "virt/vmcs.h"

namespace svtsim {

class VirtStack;

/**
 * How the L1 handler code reaches its guest's (L2's) state and
 * finishes an exit. One implementation serves every L0<->L1
 * transport of the nested trap round; it follows where L1 runs:
 *
 *  - on a VMX engine (baseline, SW SVt): L2's registers come from the
 *    in-memory vCPU cache L0 synced; vmread/vmwrite hit the shadow
 *    VMCS or trap to L0 on that engine;
 *  - on an SVt context (HW SVt): ctxtld/ctxtst reach L2's registers
 *    and RIP/RFLAGS in its dedicated context (the vCPU cache when L1
 *    and L2 share one); shadowable VMCS fields come from vmcs12,
 *    the rest take SVt-grade trap rounds.
 */
class L1Backend
{
  public:
    explicit L1Backend(VirtStack &stack) : stack_(stack) {}

    /** Read a field of vmcs01' (L1's VMCS for L2). */
    std::uint64_t vmcsRead(VmcsField field);

    /** Write a field of vmcs01'. */
    void vmcsWrite(VmcsField field, std::uint64_t value);

    /** Read one of L2's general-purpose registers. */
    std::uint64_t l2Gpr(Gpr reg);

    /** Write one of L2's general-purpose registers. */
    void setL2Gpr(Gpr reg, std::uint64_t value);

    /** L1 handler compute time (charged to the L1 handler stage). */
    void compute(Ticks t);

    /** The GuestApi of L1 itself (for vhost-side device work, timer
     *  reprogramming, kicks of L1's own virtio devices). */
    GuestApi &l1Api();

    /** Cost model, for charging handler logic time. */
    const CostModel &costs() const;

  private:
    /** Whether L2's registers sit in their own SVt context. */
    bool l2InContext() const;

    /** Serve a vmread (@p write false) or vmwrite of @p field from the
     *  shadow VMCS; false when the access traps to L0 instead. */
    bool shadowed(VmcsField field, std::uint64_t &value, bool write);

    VirtStack &stack_;
};

/** Handler for an L2 MMIO access emulated by L1 (virtio backends). */
using L1MmioHandler = std::function<std::uint64_t(
    Gpa addr, int size, std::uint64_t value, bool is_write)>;

/** Handler for an L2 hypercall into L1. */
using L1HypercallHandler = std::function<std::uint64_t(
    std::uint64_t a0, std::uint64_t a1)>;

/** Handler for an L2 port I/O access emulated by L1. */
using L1IoPortHandler = std::function<std::uint64_t(
    std::uint16_t port, std::uint64_t value, bool is_write)>;

/**
 * The L1 (guest) hypervisor's exit-handling logic for its nested VM.
 */
class GuestHypervisor
{
  public:
    /**
     * @param cpuid_view The cpuid table L1 exposes to L2.
     */
    explicit GuestHypervisor(CpuidDb cpuid_view);

    /**
     * Handle one VM trap from L2. Runs the real vmread/vmwrite and
     * register-access sequences through @p backend; every step costs
     * modeled time through the backend.
     *
     * @return True if the exit was handled and L2 should resume;
     *         false if L2 halted (Hlt exit).
     */
    bool handleNestedExit(const ExitInfo &info, L1Backend &backend);

    /** Register an emulated-device MMIO region for L2. */
    void registerMmio(Gpa base, std::uint64_t size,
                      L1MmioHandler handler);

    /** Register a hypercall number. */
    void registerHypercall(std::uint64_t nr, L1HypercallHandler handler);

    /** Register an emulated I/O port for L2. */
    void registerIoPort(std::uint16_t port, L1IoPortHandler handler);

    /** L2's extended page table as maintained by L1 (ept12/vmcs12's
     *  EPT in the paper's naming). */
    Ept &ept() { return ept12_; }

    /** MSR values L1 emulates for L2 (non-passthrough set). */
    void setMsr(std::uint32_t index, std::uint64_t value);

    /**
     * MSR-bitmap passthrough: accesses to these MSRs do not exit (the
     * combined L0/L1 MSR bitmaps permit them); the guest reads and
     * writes the hardware registers directly. Defaults to the FS/GS
     * base family, like KVM.
     */
    bool msrPassthrough(std::uint32_t index) const;
    void setMsrPassthrough(std::uint32_t index, bool passthrough);

    /**
     * Wire the callback used to raise a virtual interrupt for L2 (the
     * VirtStack provides it at assembly time).
     */
    void wireL2IrqRaiser(std::function<void(std::uint8_t)> raiser);

    /**
     * L1's local timer fired: forward the timer interrupt to L2 (the
     * virtual TSC-deadline mechanism). Registered by VirtStack as the
     * handler for vec::l1Timer.
     */
    void onL1TimerFired();

    /** Number of exits this hypervisor handled, per reason. */
    std::uint64_t handledCount(ExitReason reason) const;

  private:
    void handleCpuid(L1Backend &backend);
    void handleRdmsr(L1Backend &backend);
    void handleWrmsr(L1Backend &backend, const ExitInfo &info);
    void handleMmio(L1Backend &backend, const ExitInfo &info);
    void handleIoInstruction(L1Backend &backend, const ExitInfo &info);
    void handleEptViolation(L1Backend &backend, const ExitInfo &info);
    void handleVmcall(L1Backend &backend);

    /** Advance L2's RIP past the trapped instruction. */
    void skipInstruction(L1Backend &backend);

    /** The event-injection housekeeping every KVM exit handler runs:
     *  touches the (non-shadowable) VM-entry interruption field, which
     *  is the L1->L0 trap Algorithm 1 folds into stage 5. */
    void eventInjectionHousekeeping(L1Backend &backend);

    CpuidDb cpuidView_;
    Ept ept12_;
    std::map<std::uint32_t, std::uint64_t> msrs_;
    std::set<std::uint32_t> passthroughMsrs_;
    std::map<std::uint64_t, L1HypercallHandler> hypercalls_;
    std::map<std::uint16_t, L1IoPortHandler> ioPorts_;
    std::function<void(std::uint8_t)> raiseL2Irq_;
    /** Whether L2 armed its TSC-deadline timer (pending forward). */
    bool l2TimerArmed_ = false;

    struct MmioRegion
    {
        Gpa base;
        std::uint64_t size;
        L1MmioHandler handler;
    };
    std::vector<MmioRegion> mmio_;

    std::array<std::uint64_t,
               static_cast<std::size_t>(ExitReason::NumReasons)>
        handled_{};
};

} // namespace svtsim

#endif // SVTSIM_HV_GUEST_HYPERVISOR_H
