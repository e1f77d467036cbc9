#include "arch/lapic.h"

#include <algorithm>
#include <bitset>

#include "sim/compiler.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "sim/trace.h"

namespace svtsim {

Lapic::Lapic(EventQueue &eq, const CostModel &costs, int id,
             MetricsRegistry *metrics)
    : eq_(eq), costs_(costs), id_(id)
{
    if (metrics) {
        raisedMetric_ = metrics->counter(MetricScope::Machine, "irq",
                                         "irq.raised");
        ipiMetric_ = metrics->counter(MetricScope::Machine, "irq",
                                      "irq.ipi");
        postedMetric_ = metrics->counter(MetricScope::Machine, "irq",
                                         "irq.posted");
    }
}

Lapic::~Lapic()
{
    if (timerEvent_ != invalidEventId)
        eq_.deschedule(timerEvent_);
    // In-flight IPIs captured a pointer to us; cancel them so the
    // closures cannot fire into a destroyed object (already-fired
    // handles are no-ops).
    for (EventId id : inflightIpis_)
        eq_.deschedule(id);
}

namespace {

std::uint64_t
vectorBit(std::uint8_t vector)
{
    return 1ull << (vector & 63);
}

} // namespace

void
Lapic::raise(std::uint8_t vector)
{
    pending_[vector >> 6] |= vectorBit(vector);
    raisedMetric_.inc();
    if (TraceSink *sink = eq_.traceSink(); SVTSIM_UNLIKELY(sink != nullptr))
        sink->instant(TraceCategory::Irq, "irq.raise", vector);
}

Lapic *
Lapic::resolveRedirect()
{
    Lapic *target = this;
    int hops = 0;
    while (target->redirect) {
        target = target->redirect;
        if (++hops > 8)
            panic("Lapic redirection cycle");
    }
    return target;
}

void
Lapic::pruneInflight()
{
    inflightIpis_.erase(
        std::remove_if(inflightIpis_.begin(), inflightIpis_.end(),
                       [this](EventId id) { return !eq_.pending(id); }),
        inflightIpis_.end());
}

void
Lapic::assertExternal(std::uint8_t vector)
{
    resolveRedirect()->raise(vector);
}

int
Lapic::highestPending() const
{
    // x86 priority: the higher vector number wins.
    for (int w = 3; w >= 0; --w)
        if (pending_[w])
            return w * 64 + topBitIndex(pending_[w]);
    return -1;
}

int
Lapic::ack()
{
    int v = highestPending();
    if (v >= 0) {
        pending_[v >> 6] &= ~vectorBit(static_cast<std::uint8_t>(v));
        if (TraceSink *sink = eq_.traceSink();
            SVTSIM_UNLIKELY(sink != nullptr))
            sink->instant(TraceCategory::Irq, "irq.ack", v);
    }
    return v;
}

bool
Lapic::isPending(std::uint8_t vector) const
{
    return (pending_[vector >> 6] & vectorBit(vector)) != 0;
}

void
Lapic::clear(std::uint8_t vector)
{
    pending_[vector >> 6] &= ~vectorBit(vector);
}

bool
Lapic::postInterrupt(std::uint8_t vector)
{
    pir_[vector >> 6] |= vectorBit(vector);
    postedMetric_.inc();
    if (TraceSink *sink = eq_.traceSink(); SVTSIM_UNLIKELY(sink != nullptr))
        sink->instant(TraceCategory::Irq, "irq.post", vector);
    if (notifOutstanding_)
        return false;
    notifOutstanding_ = true;
    return true;
}

int
Lapic::syncPosted()
{
    int moved = 0;
    for (int w = 0; w < 4; ++w) {
        moved += static_cast<int>(std::bitset<64>(pir_[w]).count());
        pending_[w] |= pir_[w];
        pir_[w] = 0;
    }
    notifOutstanding_ = false;
    return moved;
}

void
Lapic::sendIpi(Lapic &dst, std::uint8_t vector)
{
    ipiMetric_.inc();
    Ticks latency = costs_.ipiLatency;
    if (FaultInjector *faults = eq_.faultInjector();
        SVTSIM_UNLIKELY(faults != nullptr)) {
        if (faults->fires(FaultSite::IpiDrop)) {
            // Lost on the interconnect: never becomes pending.
            if (TraceSink *sink = eq_.traceSink())
                sink->instant(TraceCategory::Irq, "irq.ipi.lost",
                              vector);
            return;
        }
        latency += faults->delay(FaultSite::IpiDelay);
    }
    // The event captures the destination, not the final target: the
    // redirect chain is walked when the IPI lands, so redirection
    // changes during flight behave like the hardware steering.
    Lapic *target = &dst;
    EventId id = eq_.scheduleIn(latency,
                                [target, vector] {
                                    target->pruneInflight();
                                    target->resolveRedirect()->raise(
                                        vector);
                                },
                                "ipi");
    dst.inflightIpis_.push_back(id);
}

void
Lapic::armTscDeadline(Ticks when, std::uint8_t vector)
{
    cancelTscDeadline();
    if (when <= eq_.now()) {
        // Deadline already passed: fires immediately.
        raise(vector);
        return;
    }
    timerEvent_ = eq_.schedule(when, [this, vector] {
        timerEvent_ = invalidEventId;
        raise(vector);
    }, "tsc-deadline");
}

void
Lapic::cancelTscDeadline()
{
    if (timerEvent_ != invalidEventId) {
        eq_.deschedule(timerEvent_);
        timerEvent_ = invalidEventId;
    }
}

} // namespace svtsim
