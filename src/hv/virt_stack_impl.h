/**
 * @file
 * Private implementation types of VirtStack: the per-level GuestApi
 * implementations. Included only by the hv module's translation units.
 */

#ifndef SVTSIM_HV_VIRT_STACK_IMPL_H
#define SVTSIM_HV_VIRT_STACK_IMPL_H

#include "hv/guest_hypervisor.h"
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

  protected:
    /** halt()'s wait: pump interrupts, idling to the next event
     *  between tries, until one is delivered (the caller resets the
     *  delivered vector first). @p api names the caller in the
     *  deadlock panic. */
    int waitForInterrupt(const char *api);

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
    std::uint8_t timerVector() const override;
    void compute(Ticks t) override;
    CpuidResult cpuid(std::uint64_t leaf) override;
    std::uint64_t rdmsr(std::uint32_t index) override;
    void wrmsr(std::uint32_t index, std::uint64_t value) override;
    std::uint64_t mmioRead(Gpa addr, int size) override;
    void mmioWrite(Gpa addr, int size, std::uint64_t value) override;
    void ioOut(std::uint16_t port, std::uint64_t value) override;
    std::uint64_t ioIn(std::uint16_t port) override;
    std::uint64_t vmcall(std::uint64_t nr, std::uint64_t a0,
                         std::uint64_t a1) override;
    int halt() override;

  private:
    CpuidDb db_;
    std::map<std::uint32_t, std::uint64_t> msrs_;
};

/**
 * Level-1 guest execution. Used as the top-level API in Single mode
 * and by L1-resident code (IRQ handlers, vhost backends) in the
 * nested modes.
 */
class L1Api : public LevelApiBase
{
  public:
    using LevelApiBase::LevelApiBase;

    int level() const override { return 1; }
    std::uint8_t timerVector() const override;
    void compute(Ticks t) override;
    CpuidResult cpuid(std::uint64_t leaf) override;
    std::uint64_t rdmsr(std::uint32_t index) override;
    void wrmsr(std::uint32_t index, std::uint64_t value) override;
    std::uint64_t mmioRead(Gpa addr, int size) override;
    void mmioWrite(Gpa addr, int size, std::uint64_t value) override;
    void ioOut(std::uint16_t port, std::uint64_t value) override;
    std::uint64_t ioIn(std::uint16_t port) override;
    std::uint64_t vmcall(std::uint64_t nr, std::uint64_t a0,
                         std::uint64_t a1) override;
    int halt() override;

  private:
    HwContext &ctx() { return stack_.l1Context(); }
};

/** Level-2 (nested guest) execution: the workload's API. */
class L2Api : public LevelApiBase
{
  public:
    using LevelApiBase::LevelApiBase;

    int level() const override { return 2; }
    std::uint8_t timerVector() const override;
    void compute(Ticks t) override;
    CpuidResult cpuid(std::uint64_t leaf) override;
    std::uint64_t rdmsr(std::uint32_t index) override;
    void wrmsr(std::uint32_t index, std::uint64_t value) override;
    std::uint64_t mmioRead(Gpa addr, int size) override;
    void mmioWrite(Gpa addr, int size, std::uint64_t value) override;
    void ioOut(std::uint16_t port, std::uint64_t value) override;
    std::uint64_t ioIn(std::uint16_t port) override;
    std::uint64_t vmcall(std::uint64_t nr, std::uint64_t a0,
                         std::uint64_t a1) override;
    int halt() override;

  private:
    HwContext &ctx() { return stack_.l2Context(); }
    /** Resolve an L2 guest-physical access through ept02, reflecting
     *  violations to L1 until it translates or misconfigures. */
    Ept::Result resolveGpa(Gpa addr, EptAccess access);
};

} // namespace svtsim

#endif // SVTSIM_HV_VIRT_STACK_IMPL_H
