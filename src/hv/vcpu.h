/**
 * @file
 * Hypervisor-side vCPU bookkeeping (the moral equivalent of KVM's
 * struct kvm_vcpu): in-memory register cache, synced lazily around VM
 * transitions, plus the vCPU's virtual interrupt controller.
 */

#ifndef SVTSIM_HV_VCPU_H
#define SVTSIM_HV_VCPU_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "arch/lapic.h"
#include "arch/machine.h"
#include "arch/regs.h"

namespace svtsim {

/** The MSRs a level emulates for the code it runs: bare metal's own,
 *  and L0's for L1. */
class MsrFile
{
  public:
    /** A never-written MSR reads 0. */
    std::uint64_t
    read(std::uint32_t index) const
    {
        auto it = values_.find(index);
        return it == values_.end() ? 0 : it->second;
    }

    /** Store @p value, but IA32_TSC_DEADLINE arms @p timer's deadline
     *  at @p vector instead (0 cancels it). */
    void
    write(std::uint32_t index, std::uint64_t value, Lapic &timer,
          std::uint8_t vector)
    {
        if (index != msr::ia32TscDeadline)
            values_[index] = value;
        else if (value == 0)
            timer.cancelTscDeadline();
        else
            timer.armTscDeadline(static_cast<Ticks>(value), vector);
    }

  private:
    std::map<std::uint32_t, std::uint64_t> values_;
};

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

    /** Virtual local APIC presented to this vCPU. */
    Lapic &lapic() { return *lapic_; }

  private:
    std::string name_;
    GprValues gprs_{};
    std::unique_ptr<Lapic> lapic_;
};

} // namespace svtsim

#endif // SVTSIM_HV_VCPU_H
