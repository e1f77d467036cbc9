/**
 * @file
 * VM exit reasons and exit information for the modeled virtualization
 * hardware (a subset of Intel VMX exit reasons, plus the SVT_BLOCKED
 * pseudo-trap used by the SW SVt prototype, Section 5.3).
 */

#ifndef SVTSIM_ARCH_EXIT_REASON_H
#define SVTSIM_ARCH_EXIT_REASON_H

#include <cstddef>
#include <cstdint>

namespace svtsim {

/**
 * Every exit reason in enum order, as X(enumerator, profile name). The
 * one list generates the enum, exitReasonName() and Machine's
 * `exit.<NAME>` attribution scopes, so the three cannot drift apart.
 *
 * SvtBlocked is the SW SVt pseudo-trap: L0 tells the L1 vCPU thread it
 * is blocked waiting on the SVt-thread so it must drain interrupts
 * (Section 5.3). It is not a hardware exit reason.
 */
#define SVTSIM_EXIT_REASONS(X)                                            \
    X(None, "NONE")                                                       \
    X(ExternalInterrupt, "EXTERNAL_INTERRUPT")                            \
    X(InterruptWindow, "INTERRUPT_WINDOW")                                \
    X(Cpuid, "CPUID")                                                     \
    X(Hlt, "HLT")                                                         \
    X(Vmcall, "VMCALL")                                                   \
    X(Vmclear, "VMCLEAR")                                                 \
    X(Vmlaunch, "VMLAUNCH")                                               \
    X(Vmptrld, "VMPTRLD")                                                 \
    X(Vmread, "VMREAD")                                                   \
    X(Vmresume, "VMRESUME")                                               \
    X(Vmwrite, "VMWRITE")                                                 \
    X(Vmxoff, "VMXOFF")                                                   \
    X(Vmxon, "VMXON")                                                     \
    X(CrAccess, "CR_ACCESS")                                              \
    X(IoInstruction, "IO_INSTRUCTION")                                    \
    X(Rdmsr, "MSR_READ")                                                  \
    X(Wrmsr, "MSR_WRITE")                                                 \
    X(EptViolation, "EPT_VIOLATION")                                      \
    X(EptMisconfig, "EPT_MISCONFIG")                                      \
    X(PreemptionTimer, "PREEMPTION_TIMER")                                \
    X(Invept, "INVEPT")                                                   \
    X(Pause, "PAUSE")                                                     \
    X(SvtBlocked, "SVT_BLOCKED")

/** Why a VM exited to its hypervisor. */
enum class ExitReason : std::uint16_t
{
#define SVTSIM_EXIT_REASON_ENUM(reason, name) reason,
    SVTSIM_EXIT_REASONS(SVTSIM_EXIT_REASON_ENUM)
#undef SVTSIM_EXIT_REASON_ENUM
    NumReasons,
};

/** Number of exit reasons. */
constexpr std::size_t numExitReasons =
    static_cast<std::size_t>(ExitReason::NumReasons);

/** Human-readable exit reason name (for profiles and counters). */
const char *exitReasonName(ExitReason reason);

/** Exit information the hardware deposits in the VMCS on a VM exit. */
struct ExitInfo
{
    ExitReason reason = ExitReason::None;
    /** Exit qualification (meaning depends on the reason). */
    std::uint64_t qualification = 0;
    /** Faulting guest-physical address (EPT exits, MMIO). */
    std::uint64_t guestPhysAddr = 0;
    /** Length of the exiting instruction (to advance RIP). */
    std::uint64_t instrLength = 0;
    /** Interrupt vector (external-interrupt exits). */
    std::uint8_t vector = 0;
    /** Accessed VMCS field (vmread/vmwrite exits). */
    std::uint64_t field = 0;
    /** Value operand (vmwrite exits, MSR writes). */
    std::uint64_t value = 0;
};

} // namespace svtsim

#endif // SVTSIM_ARCH_EXIT_REASON_H
