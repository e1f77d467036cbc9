#include "system/trace_session.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/log.h"

namespace svtsim {

namespace {

/** Insert @p label before the extension: t.json + "sw" -> t.sw.json. */
std::string
labeledPath(const std::string &path, const std::string &label)
{
    if (label.empty())
        return path;
    auto dot = path.rfind('.');
    auto slash = path.rfind('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return path + "." + label;
    }
    return path.substr(0, dot) + "." + label + path.substr(dot);
}

/** CSV stage summary: one row per charged stage (by name) plus idle
 *  and unattributed; the tick column sums exactly to the total row
 *  when the run conserves. */
void
writeCsvSummary(const Machine &machine, std::ostream &os)
{
    const Machine::Conservation c = machine.conservation();
    std::vector<std::pair<std::string_view, Ticks>> stages;
    for (std::size_t i = 0; i < numScopes; ++i) {
        const auto id = static_cast<ScopeId>(i);
        if (Ticks t = machine.selfTicks(id); t != 0)
            stages.emplace_back(scopeName(id), t);
    }
    std::sort(stages.begin(), stages.end());

    os << "stage,ticks,usec,percent\n";
    auto row = [&](std::string_view name, Ticks t) {
        double pct = c.elapsed > 0 ? 100.0 * static_cast<double>(t) /
                                         static_cast<double>(c.elapsed)
                                   : 0.0;
        os << name << ',' << t << ',' << toUsec(t) << ',' << pct
           << '\n';
    };
    for (const auto &[name, ticks] : stages)
        row(name, ticks);
    row("idle", c.idle);
    row("unattributed", c.unattributed);
    os << "total," << c.elapsed << ',' << toUsec(c.elapsed) << ",100\n";
}

} // namespace

ScopedTrace::ScopedTrace(Machine &machine, const std::string &path,
                         const std::string &label)
    : machine_(machine), tracePath_(labeledPath(path, label))
{
    if (path.empty())
        return;
    sink_ = std::make_unique<TraceSink>(machine.events());
    machine_.setTraceSink(sink_.get());
    sink_->setEnabled(true);
}

ScopedTrace::~ScopedTrace()
{
    if (finished_ || !sink_)
        return;
    std::string report = finish();
    if (!report.empty())
        std::fprintf(stderr, "%s\n", report.c_str());
}

std::string
ScopedTrace::finish()
{
    if (finished_ || !sink_)
        return {};
    finished_ = true;
    std::string report;
    {
        std::ofstream json(tracePath_);
        if (json)
            sink_->writeChromeTrace(json);
        else
            report = "trace: cannot write " + tracePath_ + "\n";
    }
    std::string csv_path = tracePath_ + ".csv";
    {
        std::ofstream csv(csv_path);
        if (csv)
            writeCsvSummary(machine_, csv);
    }
    const Machine::Conservation c = machine_.conservation();
    report += log_detail::format(
        "trace: %s (+.csv) events=%zu dropped=%llu "
        "elapsed=%.3fus attributed=%.3fus idle=%.3fus "
        "unattributed=%.3fus %s",
        tracePath_.c_str(), sink_->events().size(),
        static_cast<unsigned long long>(sink_->droppedEvents()),
        toUsec(c.elapsed), toUsec(c.attributed), toUsec(c.idle),
        toUsec(c.unattributed),
        c.conserved() ? "conserved" : "NOT CONSERVED");
    machine_.setTraceSink(nullptr);
    return report;
}

} // namespace svtsim
