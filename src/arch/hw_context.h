/**
 * @file
 * Architectural state of one SMT hardware context.
 */

#ifndef SVTSIM_ARCH_HW_CONTEXT_H
#define SVTSIM_ARCH_HW_CONTEXT_H

#include <cstdint>
#include <unordered_map>

#include "arch/phys_reg_file.h"
#include "arch/regs.h"

namespace svtsim {

/**
 * One hardware thread's worth of architectural state: GPRs (through the
 * core's shared physical register file), RIP/RFLAGS, control registers
 * and an MSR map. Permission/cost semantics live in higher layers
 * (SmtCore, VmxEngine); this class is raw storage.
 */
class HwContext
{
  public:
    /**
     * @param prf The owning core's physical register file.
     * @param index Context number within the core.
     */
    HwContext(PhysRegFile &prf, int index);

    int index() const { return index_; }

    // -- General-purpose registers (shared physical storage) ---------
    std::uint64_t readGpr(Gpr reg) const { return rename_.read(reg); }
    void writeGpr(Gpr reg, std::uint64_t v) { rename_.write(reg, v); }
    PhysReg physOf(Gpr reg) const { return rename_.physOf(reg); }

    /** Bulk GPR save/load: one rename pass for all registers, with
     *  the same result as per-register reads/writes in Gpr order. */
    GprValues readGprs() const { return rename_.readAll(); }
    void writeGprs(const GprValues &v) { rename_.writeAll(v); }

    // -- Special registers --------------------------------------------
    std::uint64_t rip = 0;
    std::uint64_t rflags = 0x2;

    std::uint64_t readCr(Ctrl cr) const;
    void writeCr(Ctrl cr, std::uint64_t v);

    /** Raw MSR read; unset MSRs read as zero. */
    std::uint64_t rdmsr(std::uint32_t index) const;
    void wrmsr(std::uint32_t index, std::uint64_t v);

    // -- Thread state --------------------------------------------------
    /** Whether the fetch unit is stalled for this context (SVt thread
     *  stall, or mwait). */
    bool stalled = false;

    /** Copy the full architectural register state from another
     *  context (used by tests and by eager state loads). */
    void copyArchStateFrom(const HwContext &other);

  private:
    int index_;
    RenameMap rename_;
    std::uint64_t crs_[numCtrls] = {};
    std::unordered_map<std::uint32_t, std::uint64_t> msrs_;
};

} // namespace svtsim

#endif // SVTSIM_ARCH_HW_CONTEXT_H
