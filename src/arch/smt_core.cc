#include "arch/smt_core.h"

#include "sim/log.h"

namespace svtsim {

SmtCore::SmtCore(EventQueue &eq, const CostModel &costs, int id,
                 int num_contexts, int numa_node, std::size_t prf_size,
                 MetricsRegistry *metrics)
    : eq_(eq), costs_(costs), id_(id), numaNode_(numa_node)
{
    if (num_contexts < 1)
        fatal("SmtCore requires at least one hardware context");
    if (prf_size < static_cast<std::size_t>(num_contexts) * numGprs * 2) {
        fatal("Physical register file of %zu too small for %d contexts",
              prf_size, num_contexts);
    }
    for (int i = 0; i < num_contexts; ++i) {
        contexts_.push_back(std::make_unique<HwContext>(i));
        lapics_.push_back(std::make_unique<Lapic>(
            eq_, costs_, id_ * 64 + i, metrics));
    }
}

HwContext &
SmtCore::context(int i)
{
    if (i < 0 || i >= numContexts())
        panic("SmtCore::context index %d out of range", i);
    return *contexts_[static_cast<std::size_t>(i)];
}

const HwContext &
SmtCore::context(int i) const
{
    if (i < 0 || i >= numContexts())
        panic("SmtCore::context index %d out of range", i);
    return *contexts_[static_cast<std::size_t>(i)];
}

Lapic &
SmtCore::lapic(int i)
{
    if (i < 0 || i >= numContexts())
        panic("SmtCore::lapic index %d out of range", i);
    return *lapics_[static_cast<std::size_t>(i)];
}

void
SmtCore::retargetFetch(int target)
{
    if (target < 0 || target >= numContexts())
        panic("SmtCore::retargetFetch to invalid context %d", target);
    if (target == active_)
        return;
    context(active_).stalled = true;
    context(target).stalled = false;
    active_ = target;
    ++retargets_;
}

} // namespace svtsim
