/**
 * @file
 * The interface guest code programs against.
 *
 * Guest workloads (and the guest hypervisor's own kernel code) are
 * written as C++ functions over GuestApi. Innocuous operations consume
 * time directly; sensitive operations (cpuid, MSR and MMIO accesses,
 * VMX instructions) are routed through the virtualization stack, which
 * models every trap the paper describes.
 */

#ifndef SVTSIM_HV_GUEST_API_H
#define SVTSIM_HV_GUEST_API_H

#include <cstdint>
#include <functional>

#include "arch/regs.h"
#include "sim/ticks.h"
#include "virt/ept.h"

namespace svtsim {

/**
 * Operations available to guest code at any virtualization level.
 *
 * The same workload program runs unmodified at L0 (native), L1 or L2 —
 * that is the paper's transparency requirement (Section 3.1) and the
 * basis of the cross-mode property tests.
 */
class GuestApi
{
  public:
    virtual ~GuestApi() = default;

    /** Execute plain (non-trapping) work costing @p t. */
    virtual void compute(Ticks t) = 0;

    /** Execute a cpuid instruction (always emulated when virtualized). */
    virtual CpuidResult cpuid(std::uint64_t leaf) = 0;

    /** Read a model-specific register. */
    virtual std::uint64_t rdmsr(std::uint32_t index) = 0;

    /** Write a model-specific register. */
    virtual void wrmsr(std::uint32_t index, std::uint64_t value) = 0;

    /** Read from memory-mapped I/O space. */
    virtual std::uint64_t mmioRead(Gpa addr, int size) = 0;

    /** Write to memory-mapped I/O space (virtio doorbells live here). */
    virtual void mmioWrite(Gpa addr, int size, std::uint64_t value) = 0;

    /** Port I/O write (`out`): always trapped when virtualized (the
     *  I/O bitmaps of the whole stack intercept it). */
    virtual void ioOut(std::uint16_t port, std::uint64_t value) = 0;

    /** Port I/O read (`in`). */
    virtual std::uint64_t ioIn(std::uint16_t port) = 0;

    /** Hypercall to the level's hypervisor. */
    virtual std::uint64_t vmcall(std::uint64_t nr, std::uint64_t a0,
                                 std::uint64_t a1) = 0;

    /**
     * Halt until an interrupt is delivered to this level, then handle
     * it. Returns the vector handled.
     */
    virtual int halt() = 0;

    /**
     * Poll for and deliver one pending interrupt without blocking.
     * @return The vector handled, or -1 if none was pending.
     */
    virtual int pollInterrupt() = 0;

    /** Register the handler for interrupt @p vector at this level. */
    virtual void setIrqHandler(std::uint8_t vector,
                               std::function<void()> handler) = 0;

    /** The vector the TSC-deadline timer fires at for this level. */
    virtual std::uint8_t timerVector() const = 0;

    /** Current simulated time. */
    virtual Ticks now() const = 0;

    /** Virtualization depth of this API (0 = bare metal). */
    virtual int level() const = 0;
};

/** rdmsr and wrmsr carry an MSR value split across Rdx:Rax. */
constexpr std::uint64_t
msrLow(std::uint64_t value)
{
    return value & 0xffffffff;
}

constexpr std::uint64_t
msrHigh(std::uint64_t value)
{
    return value >> 32;
}

constexpr std::uint64_t
msrJoin(std::uint64_t rdx, std::uint64_t rax)
{
    return rdx << 32 | msrLow(rax);
}

/** A guest workload: code to run against a GuestApi. */
using GuestProgram = std::function<void(GuestApi &)>;

} // namespace svtsim

#endif // SVTSIM_HV_GUEST_API_H
