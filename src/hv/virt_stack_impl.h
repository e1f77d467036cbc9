/**
 * @file
 * Private implementation types of VirtStack: the per-level GuestApi
 * implementations. Included only by the hv module's translation units.
 */

#ifndef SVTSIM_HV_VIRT_STACK_IMPL_H
#define SVTSIM_HV_VIRT_STACK_IMPL_H

#include <array>

#include "hv/guest_hypervisor.h"
#include "hv/vectors.h"
#include "hv/virt_stack.h"

namespace svtsim {

/** Shared plumbing of the per-level APIs. */
class LevelApiBase : public GuestApi
{
  public:
    explicit LevelApiBase(VirtStack &stack) : stack_(stack) {}

    Ticks now() const override { return stack_.machine().now(); }

    void
    setIrqHandler(std::uint8_t vector,
                  std::function<void()> handler) override
    {
        stack_.setIrqHandler(level(), vector, std::move(handler));
    }

    int pollInterrupt() final;

    // Below L2 no MMIO device is mapped (L0 maps none into L1's
    // space), and bare metal has no hypervisor to call.
    std::uint64_t
    mmioRead(Gpa addr, int) override
    {
        unbacked("MMIO read of gpa", addr);
    }
    void
    mmioWrite(Gpa addr, int, std::uint64_t) override
    {
        unbacked("MMIO write to gpa", addr);
    }
    std::uint64_t
    vmcall(std::uint64_t nr, std::uint64_t, std::uint64_t) override
    {
        unbacked("vmcall", nr);
    }

  protected:
    /** halt()'s wait: pump interrupts, idling to the next event
     *  between tries, until one is delivered (the caller resets the
     *  delivered vector first). @p api names the caller in the
     *  deadlock panic. */
    int waitForInterrupt(const char *api);

    /** Panic: nothing at this level handles @p what @p arg. */
    [[noreturn]] void unbacked(const char *what, std::uint64_t arg) const;

    VirtStack &stack_;
};

/** Bare-metal execution (the paper's L0 bar). */
class NativeApi : public LevelApiBase
{
  public:
    NativeApi(VirtStack &stack, CpuidDb db)
        : LevelApiBase(stack), db_(std::move(db))
    {
    }

    int level() const override { return 0; }
    std::uint8_t timerVector() const override { return vec::hostTimer; }
    void compute(Ticks t) override;
    CpuidResult cpuid(std::uint64_t leaf) override;
    std::uint64_t rdmsr(std::uint32_t index) override;
    void wrmsr(std::uint32_t index, std::uint64_t value) override;
    void ioOut(std::uint16_t port, std::uint64_t value) override;
    std::uint64_t ioIn(std::uint16_t port) override;
    int halt() override;

  private:
    CpuidDb db_;
    MsrFile msrs_;
};

/** A GPR an instruction loads before it traps. */
struct GprLoad
{
    Gpr reg;
    std::uint64_t value;
};

/** One trapping guest instruction as a virtualized level issues it. */
struct GuestTrap
{
    ExitInfo info;
    /** The operand registers, loaded in order. */
    std::array<GprLoad, 3> operands{};
    int numOperands = 0;
    /** Register operations L2 charges to set the instruction up. */
    int regOps = 0;
    /** The instruction's own execution cost at every level (cpuid's). */
    Ticks exec = 0;

    void loadOperands(HwContext &ctx) const;

    /** wrmsr of @p value to MSR @p index. */
    static GuestTrap wrmsr(std::uint32_t index, std::uint64_t value);
};

/**
 * The levels whose sensitive instructions trap to a hypervisor (L1 and
 * L2). Each trapping instruction is encoded once here: the registers
 * it loads, its exit information and the registers its result comes
 * back in. A level supplies only issue() (its trap entry, its pre-trap
 * cost, when it takes interrupts, and which MSR accesses need no exit)
 * and the context its code runs on.
 */
class VirtualizedApi : public LevelApiBase
{
  public:
    using LevelApiBase::LevelApiBase;

    CpuidResult cpuid(std::uint64_t leaf) final;
    std::uint64_t rdmsr(std::uint32_t index) final;
    void wrmsr(std::uint32_t index, std::uint64_t value) final;
    void ioOut(std::uint16_t port, std::uint64_t value) final;
    std::uint64_t ioIn(std::uint16_t port) final;
    std::uint64_t vmcall(std::uint64_t nr, std::uint64_t a0,
                         std::uint64_t a1) final;

  protected:
    /** Execute @p t at this level: take interrupts, set the
     *  instruction up and trap. @return False if it ran without an
     *  exit (an MSR access the MSR bitmaps pass through). */
    virtual bool issue(const GuestTrap &t) = 0;

    /** The hardware context this level's code runs on. */
    virtual HwContext &ctx() = 0;
};

/**
 * Level-1 guest execution. Used as the top-level API in Single mode
 * and by L1-resident code (IRQ handlers, vhost backends) in the
 * nested modes.
 */
class L1Api : public VirtualizedApi
{
  public:
    using VirtualizedApi::VirtualizedApi;

    int level() const override { return 1; }
    std::uint8_t timerVector() const override { return vec::l1Timer; }
    void compute(Ticks t) override;
    int halt() override;

  private:
    bool issue(const GuestTrap &t) override;
    HwContext &ctx() override { return stack_.l1Context(); }
};

/** Level-2 (nested guest) execution: the workload's API. */
class L2Api : public VirtualizedApi
{
  public:
    using VirtualizedApi::VirtualizedApi;

    int level() const override { return 2; }
    std::uint8_t timerVector() const override { return vec::l2Timer; }
    void compute(Ticks t) override;
    std::uint64_t mmioRead(Gpa addr, int size) override;
    void mmioWrite(Gpa addr, int size, std::uint64_t value) override;
    int halt() override;

  private:
    bool issue(const GuestTrap &t) override;
    HwContext &ctx() override { return stack_.l2Context(); }
    /** Resolve an L2 guest-physical access through ept02, reflecting
     *  violations to L1 until it translates or misconfigures. */
    Ept::Result resolveGpa(Gpa addr, EptAccess access);
};

} // namespace svtsim

#endif // SVTSIM_HV_VIRT_STACK_IMPL_H
