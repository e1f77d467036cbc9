#include "hv/channel.h"

#include <algorithm>

#include "sim/compiler.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "sim/trace.h"

namespace svtsim {

const char *
waitMechanismName(WaitMechanism m)
{
    switch (m) {
      case WaitMechanism::Poll: return "poll";
      case WaitMechanism::Mwait: return "mwait";
      case WaitMechanism::Mutex: return "mutex";
    }
    return "?";
}

const char *
placementName(Placement p)
{
    switch (p) {
      case Placement::SmtSibling: return "smt-sibling";
      case Placement::SameNode: return "same-node";
      case Placement::CrossNode: return "cross-node";
    }
    return "?";
}

Ticks
ChannelModel::wakeLatency(const CostModel &costs) const
{
    switch (mechanism) {
      case WaitMechanism::Poll:
        switch (placement) {
          case Placement::SmtSibling: return costs.pollLatencySmt;
          case Placement::SameNode: return costs.pollLatencyCore;
          case Placement::CrossNode: return costs.pollLatencyNuma;
        }
        break;
      case WaitMechanism::Mwait:
        switch (placement) {
          case Placement::SmtSibling: return costs.mwaitWakeSmt;
          case Placement::SameNode: return costs.mwaitWakeCore;
          case Placement::CrossNode: return costs.mwaitWakeNuma;
        }
        break;
      case WaitMechanism::Mutex:
        // The futex wake path (syscall + scheduler) dominates; the
        // cacheline transfer differences come on top.
        switch (placement) {
          case Placement::SmtSibling: return costs.mutexWake;
          case Placement::SameNode:
            return costs.mutexWake + costs.pollLatencyCore;
          case Placement::CrossNode:
            return costs.mutexWake + costs.pollLatencyNuma;
        }
        break;
    }
    panic("ChannelModel: invalid mechanism/placement");
}

Ticks
ChannelModel::waiterSetup(const CostModel &costs) const
{
    switch (mechanism) {
      case WaitMechanism::Poll:
        return 0;
      case WaitMechanism::Mwait:
        return costs.monitorSetup;
      case WaitMechanism::Mutex:
        // Mutexes actively poll for a brief time before sleeping
        // (Section 6.1), then pay the syscall on the sleep side.
        return costs.mutexSpinWindow;
    }
    panic("ChannelModel: invalid mechanism");
}

double
ChannelModel::workerSlowdown(const CostModel &costs) const
{
    // Only a busy-polling SMT sibling contends for execution slots;
    // mwait and mutex waiters release them (Section 6.1 findings).
    if (mechanism == WaitMechanism::Poll &&
        placement == Placement::SmtSibling) {
        return 1.0 + costs.pollSmtSlowdown;
    }
    return 1.0;
}

CommandRing::CommandRing(Machine &machine, std::string name,
                         std::size_t capacity)
    : machine_(machine), name_(std::move(name)), capacity_(capacity)
{
    if (capacity == 0)
        fatal("CommandRing requires a non-zero capacity");
    slots_.resize(capacity);
    MetricsRegistry &reg = machine_.metrics();
    postedMetric_ =
        reg.counter(MetricScope::Svt, "channel", name_ + ".posted");
    fullMetric_ =
        reg.counter(MetricScope::Svt, "channel", name_ + ".full");
    depthMetric_ =
        reg.gauge(MetricScope::Svt, "channel", name_ + ".depth");
    wakeMetric_ = reg.histogram(MetricScope::Svt, "channel",
                                name_ + ".wake_latency");
}

void
CommandRing::noteDepth()
{
    auto depth = static_cast<std::int64_t>(count_);
    depthMetric_.set(depth);
    TraceSink *sink = machine_.traceSink();
    if (SVTSIM_UNLIKELY(sink && sink->enabled()))
        sink->counter(name_ + ".depth", depth);
}

bool
CommandRing::post(const ChannelMessage &msg)
{
    const CostModel &costs = machine_.costs();
    if (count_ >= capacity_) {
        // Producer back-pressure: the consumer stalled and the ring
        // filled, so the producer waits for a free slot (the SW SVt
        // protocol is request/response, so in correct operation depth
        // never exceeds one and this path only triggers under fault
        // plans or protocol bugs — worth a counter, not a panic).
        fullMetric_.inc();
        SVTSIM_TRACE_INSTANT(machine_.traceSink(),
                             TraceCategory::Channel, "ring.full");
        // Charge the wait; the message still lands (the consumer will
        // drain it in order), so no command is ever silently lost.
        machine_.consume(costs.ringFullWait);
    }
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Channel,
                         msg.command == SwSvtCommand::VmTrap
                             ? "ring.post.vm_trap"
                             : "ring.post.vm_resume");
    // Descriptor store plus the register/trap-info payload copy.
    machine_.consume(costs.ringPost +
                     costs.ringPayloadValue * ringPayloadValues);
    FaultInjector *faults = machine_.events().faultInjector();
    if (SVTSIM_UNLIKELY(faults != nullptr) &&
        faults->fires(FaultSite::RingPostDrop)) {
        // The doorbell store is lost: the producer paid the costs but
        // the waiter never observes the command.
        SVTSIM_TRACE_INSTANT(machine_.traceSink(),
                             TraceCategory::Channel,
                             "ring.post.dropped");
        return false;
    }
    if (count_ == slots_.size()) {
        // Only reachable past the back-pressure wait above: unroll the
        // circle, oldest first, and double it.
        std::rotate(slots_.begin(),
                    slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                    slots_.end());
        head_ = 0;
        slots_.resize(2 * slots_.size());
    }
    slots_[(head_ + count_) % slots_.size()] = msg;
    ++count_;
    postedMetric_.inc();
    noteDepth();
    return true;
}

ChannelMessage
CommandRing::pop()
{
    if (count_ == 0)
        panic("CommandRing::pop on empty ring");
    // Reading the full payload out of the shared lines; symmetric
    // with the copy post() charged on the producer side.
    machine_.consume(machine_.costs().ringPayloadValue *
                     ringPayloadValues);
    SVTSIM_TRACE_INSTANT(machine_.traceSink(), TraceCategory::Channel,
                         "ring.pop");
    ChannelMessage msg = slots_[head_];
    head_ = (head_ + 1) % slots_.size();
    --count_;
    noteDepth();
    return msg;
}

void
CommandRing::recordWake(Ticks latency)
{
    wakeMetric_.record(latency);
}

void
CommandRing::consumeWake(const ChannelModel &channel)
{
    const CostModel &costs = machine_.costs();
    FaultInjector *faults = machine_.events().faultInjector();
    if (SVTSIM_UNLIKELY(faults != nullptr) &&
        faults->fires(FaultSite::RingSpuriousWake)) {
        // Spurious mwait wakeup: the waiter resumes, finds no
        // command, and pays a full re-arm + wake round.
        SVTSIM_TRACE_INSTANT(machine_.traceSink(),
                             TraceCategory::Channel,
                             "ring.wake.spurious");
        machine_.consume(channel.waiterSetup(costs) +
                         channel.wakeLatency(costs));
    }
    Ticks wake = channel.wakeLatency(costs);
    if (faults)
        wake += faults->delay(FaultSite::RingDoorbellDelay);
    machine_.consume(channel.waiterSetup(costs) + wake);
    recordWake(wake);
}

void
CommandRing::clear()
{
    head_ = 0;
    count_ = 0;
    noteDepth();
}

} // namespace svtsim
