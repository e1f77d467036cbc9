#include "stats/metrics.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <ostream>

#include "sim/json.h"
#include "sim/log.h"
#include "stats/table.h"

namespace svtsim {

const char *
metricScopeName(MetricScope scope)
{
    switch (scope) {
      case MetricScope::Machine: return "machine";
      case MetricScope::L0: return "l0";
      case MetricScope::L1: return "l1";
      case MetricScope::L2: return "l2";
      case MetricScope::Svt: return "svt";
    }
    return "?";
}

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Gauge: return "gauge";
      case MetricKind::Histogram: return "histogram";
    }
    return "?";
}

// ------------------------------------------------------- HistogramData

void
HistogramData::record(std::int64_t value)
{
    if (value < 0)
        panic("HistogramData::record of negative value");
    if (count == 0) {
        min = max = value;
    } else {
        min = std::min(min, value);
        max = std::max(max, value);
    }
    ++count;
    sum += value;
    const int bin = std::bit_width(static_cast<std::uint64_t>(value));
    bins[static_cast<std::size_t>(std::min(bin, numBins - 1))] += 1;
}

double
HistogramData::mean() const
{
    if (count == 0)
        return 0.0;
    return static_cast<double>(sum) / static_cast<double>(count);
}

double
HistogramData::quantile(double q) const
{
    simAssert(q >= 0.0 && q <= 1.0, "histogram quantile out of [0,1]");
    if (count == 0)
        return 0.0;
    if (count == 1)
        return static_cast<double>(min);
    // Rank of the requested quantile (nearest-rank, 1-based), then
    // walk the bins until the cumulative count covers it and report
    // the bin's upper bound clamped into the observed [min, max].
    auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count - 1)) + 1;
    std::uint64_t cum = 0;
    for (int b = 0; b < numBins; ++b) {
        cum += bins[static_cast<std::size_t>(b)];
        if (cum >= rank) {
            double upper =
                b == 0 ? 0.0
                       : static_cast<double>((std::uint64_t{1} << b) - 1);
            return std::min(std::max(upper, static_cast<double>(min)),
                            static_cast<double>(max));
        }
    }
    return static_cast<double>(max);
}

// ----------------------------------------------------- MetricsRegistry

std::uint32_t
MetricsRegistry::intern(MetricScope scope, std::string component,
                        std::string name, MetricKind kind)
{
    if (name.empty())
        fatal("MetricsRegistry: empty metric name");
    auto it = index_.find(name);
    if (it != index_.end()) {
        const Slot &slot = slots_[it->second];
        if (slot.kind != kind) {
            panic("MetricsRegistry: metric '%s' re-registered as %s "
                  "(was %s)",
                  name.c_str(), metricKindName(kind),
                  metricKindName(slot.kind));
        }
        return it->second;
    }
    if (slots_.size() >=
        static_cast<std::size_t>(
            std::numeric_limits<std::uint32_t>::max())) {
        fatal("MetricsRegistry: too many metrics");
    }
    auto idx = static_cast<std::uint32_t>(slots_.size());
    Slot slot;
    slot.scope = scope;
    slot.kind = kind;
    slot.component = std::move(component);
    slot.name = name;
    slots_.push_back(std::move(slot));
    index_.emplace(std::move(name), idx);
    return idx;
}

Counter
MetricsRegistry::counter(MetricScope scope, std::string component,
                         std::string name)
{
    return Counter(this, intern(scope, std::move(component),
                                std::move(name), MetricKind::Counter));
}

Gauge
MetricsRegistry::gauge(MetricScope scope, std::string component,
                       std::string name)
{
    return Gauge(this, intern(scope, std::move(component),
                              std::move(name), MetricKind::Gauge));
}

LatencyHistogram
MetricsRegistry::histogram(MetricScope scope, std::string component,
                           std::string name)
{
    return LatencyHistogram(
        this, intern(scope, std::move(component), std::move(name),
                     MetricKind::Histogram));
}

bool
MetricsRegistry::has(const std::string &name) const
{
    return index_.count(name) != 0;
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    auto it = index_.find(name);
    if (it == index_.end())
        fatal("MetricsRegistry: lookup of unregistered metric '%s'",
              name.c_str());
    const Slot &slot = slots_[it->second];
    if (slot.kind != MetricKind::Counter)
        fatal("MetricsRegistry: counter lookup of %s metric '%s'",
              metricKindName(slot.kind), name.c_str());
    return slot.value;
}

std::map<std::string, std::uint64_t>
MetricsRegistry::counterValues() const
{
    std::map<std::string, std::uint64_t> out;
    for (const Slot &slot : slots_) {
        if (slot.kind == MetricKind::Counter)
            out.emplace(slot.name, slot.value);
    }
    return out;
}

void
MetricsRegistry::reset()
{
    for (Slot &slot : slots_) {
        slot.value = 0;
        slot.gauge = 0;
        slot.gaugeMax = 0;
        slot.hist = HistogramData{};
    }
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    snap.samples.reserve(slots_.size());
    // index_ is name-ordered, giving the stable export order.
    for (const auto &[name, idx] : index_) {
        const Slot &slot = slots_[idx];
        MetricSample s;
        s.name = name;
        s.component = slot.component;
        s.scope = slot.scope;
        s.kind = slot.kind;
        switch (slot.kind) {
          case MetricKind::Counter:
            s.value = static_cast<std::int64_t>(slot.value);
            break;
          case MetricKind::Gauge:
            s.value = slot.gauge;
            s.maxValue = slot.gaugeMax;
            break;
          case MetricKind::Histogram:
            s.hist = slot.hist;
            break;
        }
        snap.samples.push_back(std::move(s));
    }
    return snap;
}

// ----------------------------------------------------- MetricsSnapshot

const MetricSample *
MetricsSnapshot::find(const std::string &name) const
{
    auto it = std::lower_bound(
        samples.begin(), samples.end(), name,
        [](const MetricSample &s, const std::string &n) {
            return s.name < n;
        });
    if (it == samples.end() || it->name != name)
        return nullptr;
    return &*it;
}

Ticks
MetricsSnapshot::scopeTicks(const std::string &name) const
{
    for (const auto &[scope, ticks] : scopes) {
        if (scope == name)
            return ticks;
    }
    return 0;
}

void
MetricsSnapshot::writeJson(std::ostream &os,
                           const std::string &indent) const
{
    const std::string in1 = indent + "  ";
    const std::string in2 = indent + "    ";
    os << "{\n" << in1 << "\"metrics\": [";
    bool first = true;
    for (const MetricSample &s : samples) {
        os << (first ? "\n" : ",\n") << in2 << "{\"name\": ";
        first = false;
        jsonString(os, s.name);
        os << ", \"scope\": \"" << metricScopeName(s.scope)
           << "\", \"component\": ";
        jsonString(os, s.component);
        os << ", \"kind\": \"" << metricKindName(s.kind) << "\"";
        switch (s.kind) {
          case MetricKind::Counter:
            os << ", \"value\": " << s.value;
            break;
          case MetricKind::Gauge:
            os << ", \"value\": " << s.value
               << ", \"max\": " << s.maxValue;
            break;
          case MetricKind::Histogram:
            os << ", \"count\": " << s.hist.count
               << ", \"sum\": " << s.hist.sum
               << ", \"min\": " << s.hist.min
               << ", \"max\": " << s.hist.max
               << ", \"mean\": " << jsonNumber(s.hist.mean())
               << ", \"p50\": " << jsonNumber(s.hist.quantile(0.50))
               << ", \"p99\": " << jsonNumber(s.hist.quantile(0.99));
            break;
        }
        os << "}";
    }
    os << (first ? "]" : "\n" + in1 + "]");
    os << ",\n" << in1 << "\"stages\": [";
    first = true;
    for (const auto &[name, ticks] : scopes) {
        os << (first ? "\n" : ",\n") << in2 << "{\"name\": ";
        first = false;
        jsonString(os, name);
        os << ", \"ticks\": " << ticks << "}";
    }
    os << (first ? "]" : "\n" + in1 + "]");
    os << "\n" << indent << "}";
}

namespace {

/** One exit-reason table: rows for every `<prefix><reason>` histogram
 *  with samples, alongside its `<count_prefix><reason>` counter. */
void
writeExitTable(std::ostream &os, const MetricsSnapshot &snap,
               const char *title, const std::string &count_prefix,
               const std::string &latency_prefix)
{
    Table table({"Reason", "Count", "Total (us)", "Mean (us)",
                 "p50 (us)", "p99 (us)"});
    int rows = 0;
    for (const MetricSample &s : snap.samples) {
        if (s.kind != MetricKind::Histogram ||
            s.name.rfind(latency_prefix, 0) != 0) {
            continue;
        }
        if (s.hist.count == 0)
            continue;
        std::string reason = s.name.substr(latency_prefix.size());
        const MetricSample *c = snap.find(count_prefix + reason);
        std::uint64_t n = c ? static_cast<std::uint64_t>(c->value)
                            : s.hist.count;
        table.addRow({reason, std::to_string(n),
                      Table::num(toUsec(s.hist.sum), 2),
                      Table::num(toUsec(static_cast<Ticks>(
                                     s.hist.mean())), 2),
                      Table::num(toUsec(static_cast<Ticks>(
                                     s.hist.quantile(0.50))), 2),
                      Table::num(toUsec(static_cast<Ticks>(
                                     s.hist.quantile(0.99))), 2)});
        ++rows;
    }
    if (rows == 0)
        return;
    os << title << "\n" << table.render() << "\n";
}

} // namespace

void
MetricsSnapshot::writeBreakdown(std::ostream &os) const
{
    // Stage breakdown (the Table 1 shape): every stage.* attribution
    // bucket, with its share of the stage total.
    Ticks stage_total = 0;
    for (const auto &[name, ticks] : scopes) {
        if (name.rfind("stage.", 0) == 0)
            stage_total += ticks;
    }
    if (stage_total > 0) {
        Table table({"Stage", "Time (us)", "Perc. (%)"});
        for (const auto &[name, ticks] : scopes) {
            if (name.rfind("stage.", 0) != 0)
                continue;
            table.addRow({name, Table::num(toUsec(ticks), 2),
                          Table::num(100.0 *
                                         static_cast<double>(ticks) /
                                         static_cast<double>(
                                             stage_total),
                                     2)});
        }
        table.addRow({"total", Table::num(toUsec(stage_total), 2),
                      Table::num(100.0, 2)});
        os << "Stage breakdown\n" << table.render() << "\n";
    }

    writeExitTable(os, *this, "L2 exits (nested trap rounds)",
                   "l2.exit.", "l2.exit_latency.");
    writeExitTable(os, *this, "L1 exits (single-level trap rounds)",
                   "l0.exit.", "l0.exit_latency.");
}

} // namespace svtsim
