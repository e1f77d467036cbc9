#include "hv/guest_hypervisor.h"

#include "arch/regs.h"
#include "hv/vectors.h"
#include "sim/log.h"

namespace svtsim {

GuestHypervisor::GuestHypervisor(CpuidDb cpuid_view)
    : cpuidView_(std::move(cpuid_view)), ept12_("ept12"),
      passthroughMsrs_({msr::ia32FsBase, msr::ia32GsBase,
                        msr::ia32KernelGsBase})
{
}

bool
GuestHypervisor::msrPassthrough(std::uint32_t index) const
{
    return passthroughMsrs_.count(index) != 0;
}

void
GuestHypervisor::setMsrPassthrough(std::uint32_t index,
                                   bool passthrough)
{
    if (passthrough)
        passthroughMsrs_.insert(index);
    else
        passthroughMsrs_.erase(index);
}

void
GuestHypervisor::registerMmio(Gpa base, std::uint64_t size,
                              L1MmioHandler handler)
{
    if (base % pageSize || size == 0)
        fatal("GuestHypervisor::registerMmio: unaligned region");
    mmio_.push_back(MmioRegion{base, size, std::move(handler)});
    // Doorbell pages are misconfigured in ept12 so L2 accesses take
    // the EPT_MISCONFIG fast path (the KVM fast-MMIO trick).
    ept12_.markMmio(base, (size + pageSize - 1) / pageSize);
}

void
GuestHypervisor::registerHypercall(std::uint64_t nr,
                                   L1HypercallHandler handler)
{
    hypercalls_[nr] = std::move(handler);
}

void
GuestHypervisor::registerIoPort(std::uint16_t port,
                                L1IoPortHandler handler)
{
    ioPorts_[port] = std::move(handler);
}

void
GuestHypervisor::wireL2IrqRaiser(
    std::function<void(std::uint8_t)> raiser)
{
    raiseL2Irq_ = std::move(raiser);
}

void
GuestHypervisor::onL1TimerFired()
{
    if (l2TimerArmed_ && raiseL2Irq_) {
        l2TimerArmed_ = false;
        raiseL2Irq_(vec::l2Timer);
    }
}

void
GuestHypervisor::skipInstruction(L1Backend &backend)
{
    std::uint64_t rip = backend.vmcsRead(VmcsField::GuestRip);
    std::uint64_t len = backend.vmcsRead(VmcsField::ExitInstrLen);
    backend.vmcsWrite(VmcsField::GuestRip, rip + len);
}

void
GuestHypervisor::eventInjectionHousekeeping(L1Backend &backend)
{
    // Every KVM exit-handling cycle re-evaluates pending event
    // injection and clears the VM-entry interruption field. The field
    // is not shadowable, so this is the L1->L0 trap that Algorithm 1
    // lines 8-10 fold into the L1 handler stage.
    backend.vmcsWrite(VmcsField::EntryIntrInfo, 0);
}

bool
GuestHypervisor::handleNestedExit(const ExitInfo &info,
                                  L1Backend &backend)
{
    // L1's KVM reads the exit reason from vmcs01' first.
    std::uint64_t reason = backend.vmcsRead(VmcsField::ExitReasonField);
    if (static_cast<ExitReason>(reason) != info.reason)
        panic("GuestHypervisor: stale exit reason in vmcs01'");

    switch (info.reason) {
      case ExitReason::Cpuid:
        handleCpuid(backend);
        break;
      case ExitReason::Rdmsr:
        handleRdmsr(backend);
        break;
      case ExitReason::Wrmsr:
        handleWrmsr(backend, info);
        break;
      case ExitReason::EptMisconfig:
        handleMmio(backend, info);
        break;
      case ExitReason::IoInstruction:
        handleIoInstruction(backend, info);
        break;
      case ExitReason::EptViolation:
        handleEptViolation(backend, info);
        break;
      case ExitReason::Vmcall:
        handleVmcall(backend);
        break;
      case ExitReason::Hlt:
        // L2 halted: no instruction skip (KVM re-enters at the HLT
        // successor via the interruptibility state), no resume.
        eventInjectionHousekeeping(backend);
        return false;
      case ExitReason::Pause:
        skipInstruction(backend);
        eventInjectionHousekeeping(backend);
        break;
      default:
        panic("GuestHypervisor: unhandled L2 exit %s",
              exitReasonName(info.reason));
    }
    return true;
}

void
GuestHypervisor::handleCpuid(L1Backend &backend)
{
    const CostModel &costs = backend.costs();
    std::uint64_t leaf = backend.l2Gpr(Gpr::Rax);
    backend.compute(costs.emulCpuid);
    CpuidResult r = cpuidView_.query(leaf);
    backend.setL2Gpr(Gpr::Rax, r.eax);
    backend.setL2Gpr(Gpr::Rbx, r.ebx);
    backend.setL2Gpr(Gpr::Rcx, r.ecx);
    backend.setL2Gpr(Gpr::Rdx, r.edx);
    skipInstruction(backend);
    eventInjectionHousekeeping(backend);
    backend.compute(costs.l1HandlerLogic);
}

void
GuestHypervisor::handleRdmsr(L1Backend &backend)
{
    const CostModel &costs = backend.costs();
    auto index =
        static_cast<std::uint32_t>(backend.l2Gpr(Gpr::Rcx));
    backend.compute(costs.emulMsr);
    std::uint64_t value = 0;
    auto it = msrs_.find(index);
    if (it != msrs_.end())
        value = it->second;
    backend.setL2Gpr(Gpr::Rax, msrLow(value));
    backend.setL2Gpr(Gpr::Rdx, msrHigh(value));
    skipInstruction(backend);
    eventInjectionHousekeeping(backend);
    backend.compute(costs.l1HandlerLogic);
}

void
GuestHypervisor::handleWrmsr(L1Backend &backend, const ExitInfo &info)
{
    const CostModel &costs = backend.costs();
    auto index = static_cast<std::uint32_t>(backend.l2Gpr(Gpr::Rcx));
    const std::uint64_t rdx = backend.l2Gpr(Gpr::Rdx);
    std::uint64_t value = msrJoin(rdx, backend.l2Gpr(Gpr::Rax));
    (void)info;
    backend.compute(costs.emulMsr);

    if (index == msr::ia32TscDeadline) {
        // L2 armed its deadline timer. L1 virtualizes it: remember the
        // pending forward and arm L1's own deadline through L1's (also
        // emulated) MSR -- which traps to L0 (the MSR_WRITE profile
        // entries of Section 6.2 largely come from here).
        l2TimerArmed_ = (value != 0);
        backend.l1Api().wrmsr(msr::ia32TscDeadline, value);
    } else {
        msrs_[index] = value;
    }
    skipInstruction(backend);
    eventInjectionHousekeeping(backend);
    backend.compute(costs.l1HandlerLogic);
}

void
GuestHypervisor::handleMmio(L1Backend &backend, const ExitInfo &info)
{
    const CostModel &costs = backend.costs();
    std::uint64_t gpa = backend.vmcsRead(VmcsField::GuestPhysAddr);
    // Fetch + decode of the faulting instruction from L2 memory.
    backend.compute(costs.mmioDecode);

    const MmioRegion *region = nullptr;
    for (const auto &r : mmio_) {
        if (gpa >= r.base && gpa < r.base + r.size) {
            region = &r;
            break;
        }
    }
    if (!region)
        panic("GuestHypervisor: L2 MMIO access to unmapped gpa %#llx",
              static_cast<unsigned long long>(gpa));

    bool is_write = info.qualification & 1;
    int size = static_cast<int>(info.qualification >> 1 & 0xf);
    // The userspace/vhost I/O thread in L1 is woken to process the
    // doorbell (scheduler work inside L1; no exit of its own).
    backend.compute(costs.l1IoThreadWake);
    std::uint64_t result =
        region->handler(gpa, size, info.value, is_write);
    if (!is_write)
        backend.setL2Gpr(Gpr::Rax, result);
    skipInstruction(backend);
    // I/O exits touch much more virtualization state than cpuid:
    // interrupt windows, TPR threshold, pending events. Each access
    // lands on a non-shadowable field (an extra L1->L0 trap in the
    // baseline; nearly free under HW SVt).
    for (int i = 0; i < costs.l1IoExtraVmcsTraps; ++i)
        backend.vmcsWrite(VmcsField::EntryIntrInfo, 0);
    eventInjectionHousekeeping(backend);
    backend.compute(costs.l1HandlerLogic);
}

void
GuestHypervisor::handleIoInstruction(L1Backend &backend,
                                     const ExitInfo &info)
{
    const CostModel &costs = backend.costs();
    auto port = static_cast<std::uint16_t>(info.qualification >> 16);
    bool is_write = info.qualification & 1;
    // Port I/O decodes straight from the exit qualification; no
    // instruction fetch is needed (unlike MMIO).
    backend.compute(costs.emulMsr);
    auto it = ioPorts_.find(port);
    std::uint64_t result = ~0ULL; // float the bus
    if (it != ioPorts_.end())
        result = it->second(port, info.value, is_write);
    if (!is_write)
        backend.setL2Gpr(Gpr::Rax, result);
    skipInstruction(backend);
    eventInjectionHousekeeping(backend);
    backend.compute(costs.l1HandlerLogic);
}

void
GuestHypervisor::handleEptViolation(L1Backend &backend,
                                    const ExitInfo &info)
{
    const CostModel &costs = backend.costs();
    std::uint64_t gpa = backend.vmcsRead(VmcsField::GuestPhysAddr);
    (void)info;
    // L1 demand-maps the page: walk its memory management structures
    // and install the translation in ept12 at an identity-with-offset
    // host (i.e., L1-physical) address.
    backend.compute(costs.mmioDecode + 4 * costs.memAccess);
    ept12_.map(gpa & ~(pageSize - 1),
               (gpa & ~(pageSize - 1)) + (1ULL << 40));
    eventInjectionHousekeeping(backend);
    backend.compute(costs.l1HandlerLogic);
    // No instruction skip: the access retries and now translates.
}

void
GuestHypervisor::handleVmcall(L1Backend &backend)
{
    const CostModel &costs = backend.costs();
    std::uint64_t nr = backend.l2Gpr(Gpr::Rax);
    auto it = hypercalls_.find(nr);
    std::uint64_t result = ~0ULL; // -ENOSYS flavour
    if (it != hypercalls_.end()) {
        result = it->second(backend.l2Gpr(Gpr::Rbx),
                            backend.l2Gpr(Gpr::Rcx));
    }
    backend.setL2Gpr(Gpr::Rax, result);
    skipInstruction(backend);
    eventInjectionHousekeeping(backend);
    backend.compute(costs.l1HandlerLogic);
}

} // namespace svtsim
