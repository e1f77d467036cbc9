/**
 * @file
 * Architectural state of one SMT hardware context.
 */

#ifndef SVTSIM_ARCH_HW_CONTEXT_H
#define SVTSIM_ARCH_HW_CONTEXT_H

#include <cstdint>
#include <unordered_map>

#include "arch/regs.h"

namespace svtsim {

/**
 * One hardware thread's worth of architectural state: 16 GPRs,
 * RIP/RFLAGS, control registers and an MSR map, each held in the
 * context's own storage. Registers stay in their context: a trap
 * round's spill and reload is one array copy, and a sibling context's
 * cross-context access (ctxtld/ctxtst) reads and writes this storage
 * directly. Permission/cost semantics live in higher layers (SmtCore,
 * VmxEngine, SvtUnit); this class is raw storage.
 */
class HwContext
{
  public:
    /** @param index Context number within the core. */
    explicit HwContext(int index) : index_(index) {}

    int index() const { return index_; }

    // -- General-purpose registers ------------------------------------
    std::uint64_t readGpr(Gpr reg) const
    {
        return gprs_[static_cast<std::size_t>(reg)];
    }
    void writeGpr(Gpr reg, std::uint64_t v)
    {
        gprs_[static_cast<std::size_t>(reg)] = v;
    }

    /** Bulk GPR save/load, in Gpr order. */
    const GprValues &readGprs() const { return gprs_; }
    void writeGprs(const GprValues &v) { gprs_ = v; }

    // -- Special registers --------------------------------------------
    std::uint64_t rip = 0;
    std::uint64_t rflags = 0x2;

    std::uint64_t readCr(Ctrl cr) const
    {
        return crs_[static_cast<std::size_t>(cr)];
    }
    void writeCr(Ctrl cr, std::uint64_t v)
    {
        crs_[static_cast<std::size_t>(cr)] = v;
    }

    /** Raw MSR read; unset MSRs read as zero. */
    std::uint64_t rdmsr(std::uint32_t index) const
    {
        auto it = msrs_.find(index);
        return it == msrs_.end() ? 0 : it->second;
    }
    void wrmsr(std::uint32_t index, std::uint64_t v) { msrs_[index] = v; }

    // -- Thread state --------------------------------------------------
    /** Whether the fetch unit is stalled for this context (SVt thread
     *  stall, or mwait). */
    bool stalled = false;

  private:
    int index_;
    GprValues gprs_{};
    std::uint64_t crs_[numCtrls] = {};
    std::unordered_map<std::uint32_t, std::uint64_t> msrs_;
};

} // namespace svtsim

#endif // SVTSIM_ARCH_HW_CONTEXT_H
