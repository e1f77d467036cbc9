/**
 * @file
 * SVt hardware support (paper Sections 3-4, Table 2).
 *
 * The SvtUnit is the per-core block the paper adds to an SMT core:
 *
 *  - three VMCS fields (SVt_visor, SVt_vm, SVt_nested) cached into
 *    per-core micro-architectural registers at VMPTRLD;
 *  - an SVt_current register selecting the context to fetch from;
 *  - the existing is_vm register;
 *  - VM trap / VM resume turned into thread stall/resume events that
 *    retarget instruction fetch (no state movement);
 *  - ctxtld/ctxtst instructions that access another context's
 *    registers (in hardware through the shared physical register
 *    file; here by reading the target HwContext's storage), with the
 *    target selected *indirectly* through the lvl argument so context
 *    identifiers stay virtualizable.
 */

#ifndef SVTSIM_SVT_SVT_UNIT_H
#define SVTSIM_SVT_SVT_UNIT_H

#include <bitset>
#include <cstdint>

#include "arch/machine.h"
#include "arch/regs.h"
#include "virt/vmcs.h"

namespace svtsim {

/** Non-GPR registers reachable by ctxtld/ctxtst. */
enum class SvtSpecialReg : std::uint8_t
{
    Rip,
    Rflags,
    Cr0,
    Cr3,
    Cr4,
};

/** Per-core micro-architectural registers added by SVt (Table 2). */
struct SvtUregs
{
    /** Target context for instruction fetch (SVt_current). */
    std::uint64_t current = 0;
    /** Cached SVt_visor field of the loaded VMCS. */
    std::uint64_t visor = svtInvalidContext;
    /** Cached SVt_vm field of the loaded VMCS. */
    std::uint64_t vm = svtInvalidContext;
    /** Cached SVt_nested field of the loaded VMCS. */
    std::uint64_t nested = svtInvalidContext;
    /** Whether a VM is executing (pre-existing is_vm register). */
    bool isVm = false;
};

/**
 * The per-core SVt block.
 *
 * The unit must be enabled before use; a disabled unit leaves the core
 * behaving exactly like a baseline SMT core (Section 3.3 coexistence).
 */
class SvtUnit
{
  public:
    SvtUnit(Machine &machine, SmtCore &core);

    bool enabled() const { return enabled_; }

    /**
     * Enable SVt on this core. Per the paper's simple design the whole
     * core switches mode (per-context enabling is listed as a simple
     * extension in Section 4.1).
     */
    void enable();
    void disable();

    const SvtUregs &uregs() const { return uregs_; }

    // -- VMCS interactions -----------------------------------------------
    /**
     * Cache the SVt_* VMCS fields into the micro-architectural
     * registers (happens during VMPTRLD, Section 4 step B).
     */
    void loadFromVmcs(const Vmcs &vmcs);

    /**
     * VM resume in SVt: stall the current context and retarget fetch
     * to SVt_vm; set is_vm. Replaces the state save/restore of a
     * baseline VM entry (Section 4 step C).
     */
    void vmResume();

    /**
     * VM trap in SVt: stall the current context and retarget fetch to
     * SVt_visor; clear is_vm. All in-flight speculative instructions
     * are squashed before fetching from the new context, which is why
     * SVt does not inherit SMT's cross-domain speculation problems
     * (Section 3.4).
     */
    void vmTrap();

    /**
     * Selective level bypass (Section 3.1 extension): deliver a trap
     * straight to another guest context (the guest hypervisor)
     * without visiting the visor. is_vm stays set — the handler is
     * itself a VM.
     *
     * @pre The current VMCS's SVt fields must already identify
     *      @p handler_ctx as a valid context.
     */
    void directReflect(int handler_ctx);

    // -- Cross-context register access (ctxtld / ctxtst) ------------------
    /** Outcome of a cross-context access. */
    enum class Access
    {
        Ok,
        /** Combination of lvl and is_vm is invalid, or the register
         *  was configured to trap: the hypervisor must emulate
         *  (Section 4: "produces a trap into the hypervisor"). */
        Trap,
    };

    /**
     * Resolve the lvl argument to a physical context index per the
     * Section 4 rules:
     *   is_vm == 0: lvl 1 -> SVt_vm, lvl 2 -> SVt_nested
     *   is_vm == 1: lvl 1 -> SVt_nested
     * @return The context index, or -1 when the combination traps.
     */
    int resolveTarget(int lvl) const;

    Access ctxtld(int lvl, Gpr reg, std::uint64_t &out);
    Access ctxtst(int lvl, Gpr reg, std::uint64_t value);
    Access ctxtld(int lvl, SvtSpecialReg reg, std::uint64_t &out);
    Access ctxtst(int lvl, SvtSpecialReg reg, std::uint64_t value);

    // -- Guest access traps (Section 3.1) ----------------------------------
    /**
     * Configure whether guest-mode cross-context accesses to @p reg
     * trap into the hypervisor (mirrors how existing hardware traps
     * accesses to certain registers).
     */
    void setGuestGprTrap(Gpr reg, bool trap);
    bool guestGprTraps(Gpr reg) const;

  private:
    void requireEnabled(const char *op) const;
    HwContext *targetContext(int lvl, bool &traps);

    Machine &machine_;
    SmtCore &core_;
    bool enabled_ = false;
    SvtUregs uregs_;
    std::bitset<numGprs> guestTrapMask_;
    /** PMU handles for stall/resume transitions and cross-context
     *  register traffic; shared across all SvtUnits on a machine. */
    Counter switchMetric_;
    Counter vmResumeMetric_;
    Counter vmTrapMetric_;
    Counter directReflectMetric_;
    Counter ctxtldMetric_;
    Counter ctxtstMetric_;
};

} // namespace svtsim

#endif // SVTSIM_SVT_SVT_UNIT_H
