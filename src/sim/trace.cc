#include "sim/trace.h"

#include <ostream>

#include "sim/json.h"
#include "sim/log.h"

namespace svtsim {

const char *
traceCategoryName(TraceCategory c)
{
    switch (c) {
      case TraceCategory::Stage: return "stage";
      case TraceCategory::Exit: return "exit";
      case TraceCategory::Vmx: return "vmx";
      case TraceCategory::Vmcs: return "vmcs";
      case TraceCategory::Svt: return "svt";
      case TraceCategory::Channel: return "channel";
      case TraceCategory::Irq: return "irq";
      case TraceCategory::Io: return "io";
      case TraceCategory::Sim: return "sim";
    }
    return "?";
}

TraceSink::TraceSink(EventQueue &eq, std::size_t capacity)
    : eq_(eq), capacity_(capacity), origin_(eq.now())
{
    if (capacity_ == 0)
        fatal("TraceSink requires a non-zero event capacity");
}

void
TraceSink::setEnabled(bool on)
{
    if (on && !enabled_) {
        events_.clear();
        dropped_ = 0;
        origin_ = eq_.now();
    }
    enabled_ = on;
}

void
TraceSink::push(TraceEvent ev)
{
    if (events_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(ev));
}

void
TraceSink::complete(TraceCategory category, const char *name,
                    Ticks start, Ticks duration)
{
    if (!enabled_)
        return;
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::Complete;
    ev.category = category;
    ev.name = name;
    ev.start = start;
    ev.duration = duration;
    push(std::move(ev));
}

void
TraceSink::instant(TraceCategory category, std::string name,
                   std::int64_t value)
{
    if (!enabled_)
        return;
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::Instant;
    ev.category = category;
    ev.name = std::move(name);
    ev.start = eq_.now();
    ev.value = value;
    push(std::move(ev));
}

void
TraceSink::counter(std::string name, std::int64_t value)
{
    if (!enabled_)
        return;
    TraceEvent ev;
    ev.phase = TraceEvent::Phase::Counter;
    ev.category = TraceCategory::Sim;
    ev.name = std::move(name);
    ev.start = eq_.now();
    ev.value = value;
    push(std::move(ev));
}

void
TraceSink::writeChromeTrace(std::ostream &os) const
{
    // Chrome trace-event format: timestamps ("ts") and durations
    // ("dur") are fractional microseconds; ticks are picoseconds.
    auto us = [](Ticks t) { return static_cast<double>(t) / 1e6; };
    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    for (const auto &ev : events_) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":";
        jsonString(os, ev.name);
        os << ",\"cat\":\"" << traceCategoryName(ev.category)
           << "\",\"pid\":0,\"tid\":0,\"ts\":" << us(ev.start);
        switch (ev.phase) {
          case TraceEvent::Phase::Complete:
            os << ",\"ph\":\"X\",\"dur\":" << us(ev.duration);
            break;
          case TraceEvent::Phase::Instant:
            os << ",\"ph\":\"i\",\"s\":\"t\",\"args\":{\"value\":"
               << ev.value << "}";
            break;
          case TraceEvent::Phase::Counter:
            os << ",\"ph\":\"C\",\"args\":{\"value\":" << ev.value
               << "}";
            break;
        }
        os << '}';
    }
    os << "]}";
}

} // namespace svtsim
