/**
 * @file
 * Architectural register identifiers for the modeled x86-like core.
 */

#ifndef SVTSIM_ARCH_REGS_H
#define SVTSIM_ARCH_REGS_H

#include <array>
#include <cstdint>

namespace svtsim {

/** General-purpose registers (x86-64 names). */
enum class Gpr : std::uint8_t
{
    Rax, Rbx, Rcx, Rdx, Rsi, Rdi, Rbp, Rsp,
    R8, R9, R10, R11, R12, R13, R14, R15,
};

/** Number of architectural GPRs. */
constexpr int numGprs = 16;

/** One value per GPR, indexed by Gpr. */
using GprValues = std::array<std::uint64_t, numGprs>;

/** Control registers relevant to virtualization. */
enum class Ctrl : std::uint8_t
{
    Cr0, Cr2, Cr3, Cr4,
};

/** Number of modeled control registers. */
constexpr int numCtrls = 4;

/** MSR indices used by the model (subset of the x86 MSR space). */
namespace msr {

constexpr std::uint32_t ia32Efer = 0xc0000080;
constexpr std::uint32_t ia32FsBase = 0xc0000100;
constexpr std::uint32_t ia32GsBase = 0xc0000101;
constexpr std::uint32_t ia32KernelGsBase = 0xc0000102;
constexpr std::uint32_t ia32Star = 0xc0000081;
constexpr std::uint32_t ia32Lstar = 0xc0000082;
constexpr std::uint32_t ia32Tsc = 0x10;
constexpr std::uint32_t ia32TscDeadline = 0x6e0;
constexpr std::uint32_t ia32ApicBase = 0x1b;
constexpr std::uint32_t ia32SpecCtrl = 0x48;
constexpr std::uint32_t ia32PredCmd = 0x49;
/** x2APIC end-of-interrupt register (wrmsr-based EOI). */
constexpr std::uint32_t ia32X2apicEoi = 0x80b;

} // namespace msr

/** Result of a cpuid query. */
struct CpuidResult
{
    std::uint64_t eax = 0;
    std::uint64_t ebx = 0;
    std::uint64_t ecx = 0;
    std::uint64_t edx = 0;

    bool
    operator==(const CpuidResult &other) const = default;
};

} // namespace svtsim

#endif // SVTSIM_ARCH_REGS_H
