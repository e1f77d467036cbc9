/**
 * @file
 * SMT core: N hardware contexts, each with its own register storage.
 */

#ifndef SVTSIM_ARCH_SMT_CORE_H
#define SVTSIM_ARCH_SMT_CORE_H

#include <memory>
#include <vector>

#include "arch/cost_model.h"
#include "arch/hw_context.h"
#include "arch/lapic.h"
#include "sim/event_queue.h"

namespace svtsim {

/**
 * A physical core with SMT hardware contexts.
 *
 * The baseline core knows nothing about SVt; it provides the raw
 * resources (replicated per-thread state, each context's registers in
 * its own storage, one local APIC per context) plus an "active
 * context" notion used by the single-effective-thread execution styles
 * (SVt, and the baseline where SMT is disabled for security per
 * Section 1). The core's physical register file is kept only as a
 * capacity: construction rejects a file too small to back every
 * context's GPRs twice (committed state plus rename headroom).
 */
class SmtCore
{
  public:
    static constexpr std::size_t defaultPrfSize = 320;

    /**
     * @param eq Shared event queue.
     * @param costs Cost model.
     * @param id Core number.
     * @param num_contexts SMT width (Table 4: 2; HW SVt studies 3+).
     * @param numa_node NUMA node the core belongs to.
     * @param prf_size Physical register file capacity (checked
     *        against num_contexts, not modelled register by register).
     * @param metrics Owning machine's registry (nullptr for bare cores
     *        built in unit tests: lapic metrics become inert).
     */
    SmtCore(EventQueue &eq, const CostModel &costs, int id,
            int num_contexts, int numa_node,
            std::size_t prf_size = defaultPrfSize,
            MetricsRegistry *metrics = nullptr);

    int id() const { return id_; }
    int numaNode() const { return numaNode_; }
    int numContexts() const { return static_cast<int>(contexts_.size()); }

    HwContext &context(int i);
    const HwContext &context(int i) const;
    Lapic &lapic(int i);

    /** Context currently being fetched from. */
    int activeContext() const { return active_; }

    /**
     * Retarget instruction fetch to @p target, stalling the current
     * context. The caller supplies the cost (a full VM-transition for
     * the baseline, CostModel::svtSwitch for SVt) and accounts it.
     */
    void retargetFetch(int target);

    /** Number of fetch retargets (for stats/tests). */
    std::uint64_t retargetCount() const { return retargets_; }

  private:
    EventQueue &eq_;
    const CostModel &costs_;
    int id_;
    int numaNode_;
    std::vector<std::unique_ptr<HwContext>> contexts_;
    std::vector<std::unique_ptr<Lapic>> lapics_;
    int active_ = 0;
    std::uint64_t retargets_ = 0;
};

} // namespace svtsim

#endif // SVTSIM_ARCH_SMT_CORE_H
