#include "io/virtqueue.h"

#include "sim/compiler.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "sim/trace.h"

namespace svtsim {

Virtqueue::Virtqueue(Machine &machine, std::string name,
                     std::size_t size)
    : machine_(machine), name_(std::move(name)), size_(size)
{
    if (size == 0)
        fatal("Virtqueue requires a non-zero ring size");
    MetricsRegistry &reg = machine_.metrics();
    postedMetric_ =
        reg.counter(MetricScope::Machine, "virtio", name_ + ".posted");
    kicksMetric_ =
        reg.counter(MetricScope::Machine, "virtio", name_ + ".kicks");
    fullMetric_ =
        reg.counter(MetricScope::Machine, "virtio", name_ + ".full");
    availDepthMetric_ = reg.gauge(MetricScope::Machine, "virtio",
                                  name_ + ".avail_depth");
}

void
Virtqueue::noteAvailDepth()
{
    auto depth = static_cast<std::int64_t>(avail_.size());
    availDepthMetric_.set(depth);
    TraceSink *sink = machine_.traceSink();
    if (SVTSIM_UNLIKELY(sink && sink->enabled()))
        sink->counter(name_ + ".avail_depth", depth);
}

bool
Virtqueue::post(const VirtioBuffer &buf)
{
    FaultInjector *faults = machine_.events().faultInjector();
    bool pressured = SVTSIM_UNLIKELY(faults != nullptr) &&
                     faults->fires(FaultSite::VirtioBackpressure);
    if (avail_.size() >= size_ || pressured) {
        // Back-pressure, not a protocol violation: the driver spins
        // until the device frees a slot. The buffer is never lost.
        fullMetric_.inc();
        SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Io,
                             "virtqueue.full." + name_);
        machine_.consume(machine_.costs().ringFullWait);
    }
    machine_.consume(machine_.costs().virtqueueDescriptor);
    avail_.push_back(buf);
    postedMetric_.inc();
    noteAvailDepth();
    if (!deviceRunning_) {
        deviceRunning_ = true;
        kicksMetric_.inc();
        SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Io,
                             "virtqueue.kick." + name_);
        return true;
    }
    return false;
}

bool
Virtqueue::popUsed(VirtioBuffer &out)
{
    if (used_.empty())
        return false;
    machine_.consume(machine_.costs().memAccess * 2);
    out = used_.front();
    used_.pop_front();
    return true;
}

bool
Virtqueue::take(VirtioBuffer &out)
{
    if (avail_.empty()) {
        deviceRunning_ = false;
        return false;
    }
    out = avail_.front();
    avail_.pop_front();
    noteAvailDepth();
    return true;
}

void
Virtqueue::complete(const VirtioBuffer &buf)
{
    if (used_.size() >= size_)
        panic("Virtqueue %s used-ring overflow", name_.c_str());
    machine_.consume(machine_.costs().memAccess * 2);
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Io,
                         "virtqueue.complete." + name_);
    used_.push_back(buf);
}

void
Virtqueue::completeQuiet(const VirtioBuffer &buf)
{
    if (used_.size() >= size_)
        panic("Virtqueue %s used-ring overflow", name_.c_str());
    used_.push_back(buf);
}

} // namespace svtsim
