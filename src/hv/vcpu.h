/**
 * @file
 * Hypervisor-side vCPU bookkeeping (the moral equivalent of KVM's
 * struct kvm_vcpu): in-memory register cache, synced lazily around VM
 * transitions, plus the vCPU's virtual interrupt controller.
 */

#ifndef SVTSIM_HV_VCPU_H
#define SVTSIM_HV_VCPU_H

#include <cstdint>
#include <memory>
#include <string>

#include "arch/lapic.h"
#include "arch/machine.h"
#include "arch/regs.h"

namespace svtsim {

/**
 * Per-vCPU software state kept by a hypervisor for one of its guests.
 */
class Vcpu
{
  public:
    /**
     * @param machine The machine (for the virtual APIC's timer events).
     * @param name Diagnostic name, e.g. "l0.vcpu[l1]".
     */
    Vcpu(Machine &machine, std::string name);

    const std::string &name() const { return name_; }

    /** In-memory GPR cache (KVM's vcpu->arch.regs). */
    std::uint64_t gpr(Gpr reg) const
    {
        return gprs_[static_cast<std::size_t>(reg)];
    }

    void setGpr(Gpr reg, std::uint64_t v)
    {
        gprs_[static_cast<std::size_t>(reg)] = v;
    }

    /** The whole cache, for bulk syncs with vCPU structs and
     *  hardware contexts. */
    GprValues &gprs() { return gprs_; }

    /** Cached instruction pointer. */
    std::uint64_t rip = 0;
    /** Cached flags. */
    std::uint64_t rflags = 0x2;
    /** Whether the guest is halted waiting for an interrupt. */
    bool halted = false;

    /** Virtual local APIC presented to this vCPU. */
    Lapic &lapic() { return *lapic_; }

  private:
    std::string name_;
    GprValues gprs_{};
    std::unique_ptr<Lapic> lapic_;
};

} // namespace svtsim

#endif // SVTSIM_HV_VCPU_H
