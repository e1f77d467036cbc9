#include "system/bench_harness.h"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <ostream>

#include "sim/decimal.h"
#include "sim/json.h"
#include "sim/log.h"
#include "system/epoch_crew.h"

namespace svtsim {

namespace {

/** Store the value @p arg gives @p flag's row in its target; false
 *  when the value is missing, unexpected or malformed. */
bool
assign(const BenchHarness::Flag &flag, const std::string &arg)
{
    const std::size_t eq = arg.find('=');
    if (bool *const *on = std::get_if<bool *>(&flag.target)) {
        **on = true;
        return eq == std::string::npos;
    }
    if (eq == std::string::npos)
        return false;
    const std::string value = arg.substr(eq + 1);
    if (std::string *const *text = std::get_if<std::string *>(&flag.target)) {
        **text = value;
        return true;
    }
    std::uint64_t n = 0;
    if (!parseDecimal(value, n) || n > flag.max)
        return false;
    *std::get<std::uint64_t *>(flag.target) = n;
    return true;
}

/** The opening of both result dumps, up to the scenario list. */
void
jsonHead(std::ostream &os, const std::string &name, const std::string &title,
         const BenchOptions &options)
{
    os << "{\n  \"bench\": ";
    jsonString(os, name);
    os << ",\n  \"title\": ";
    jsonString(os, title);
    os << ",\n  \"seed\": " << options.seed;
    if (!options.faultsSpec.empty()) {
        os << ",\n  \"faults\": ";
        jsonString(os, options.faultsSpec);
    }
    os << ",\n  \"scenarios\": [";
}

/** The results as JSON (stable field and metric order). */
void
writeJson(std::ostream &os, const std::string &name,
          const std::string &title, const SweepResults &results,
          const BenchOptions &options)
{
    // --jobs is deliberately absent: the JSON is a *result* artifact
    // and must be byte-identical regardless of the worker count.
    jsonHead(os, name, title, options);
    bool first_scenario = true;
    for (const auto &r : results.all()) {
        os << (first_scenario ? "\n" : ",\n");
        first_scenario = false;
        os << "    {\"name\": ";
        jsonString(os, r.name());
        os << ", \"mode\": ";
        jsonString(os, virtModeName(r.mode()));
        os << ", \"seed\": " << r.seed();
        os << ", \"final_ticks\": " << r.finalTicks();
        if (!r.ok()) {
            os << ", \"error\": ";
            jsonString(os, r.error());
        }
        os << ", \"metrics\": {";
        bool first_metric = true;
        for (const auto &[key, value] : r.metrics()) {
            if (!first_metric)
                os << ", ";
            first_metric = false;
            jsonString(os, key);
            os << ": " << jsonNumber(value);
        }
        os << "}}";
    }
    os << "\n  ]\n}\n";
}

/** The per-scenario simulated-PMU snapshots as JSON. */
void
writeMetricsJson(std::ostream &os, const std::string &name,
                 const std::string &title, const SweepResults &results,
                 const BenchOptions &options)
{
    // Same contract as writeJson: --jobs is absent by design, the
    // snapshots are deterministic per scenario, and samples are
    // name-sorted, so the dump is byte-identical across worker counts.
    jsonHead(os, name, title, options);
    bool first = true;
    for (const auto &r : results.all()) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\n      \"name\": ";
        jsonString(os, r.name());
        os << ",\n      \"mode\": ";
        jsonString(os, virtModeName(r.mode()));
        os << ",\n      \"seed\": " << r.seed();
        os << ",\n      \"final_ticks\": " << r.finalTicks();
        if (!r.ok()) {
            os << ",\n      \"error\": ";
            jsonString(os, r.error());
        }
        os << ",\n      \"pmu\": ";
        r.metricsSnapshot().writeJson(os, "      ");
        os << "\n    }";
    }
    os << "\n  ]\n}\n";
}

} // namespace

bool
writeOutput(const std::string &bench, const std::string &path,
            const std::function<void(std::ostream &)> &write)
{
    std::ofstream file;
    if (path != "-")
        file.open(path);
    if (path != "-" && !file) {
        std::cerr << bench << ": cannot write '" << path << "'\n";
        return false;
    }
    write(path == "-" ? std::cout : file);
    return true;
}

Scenario &
BenchHarness::add(Scenario scenario)
{
    scenarios_.push_back(std::move(scenario));
    return scenarios_.back();
}

Scenario &
BenchHarness::add(std::string name, VirtMode mode, ScenarioFn run)
{
    return add(std::move(name), mode, StackConfig{}, std::move(run));
}

Scenario &
BenchHarness::add(std::string name, VirtMode mode, StackConfig config,
                  ScenarioFn run)
{
    return add({std::move(name), mode, config, {}, std::move(run), {}});
}

Scenario &
BenchHarness::addCluster(std::string name, VirtMode mode,
                         ClusterScenarioFn run)
{
    return add({std::move(name), mode, {}, {}, {}, std::move(run)});
}

int
BenchHarness::usage(const std::vector<Flag> &table, std::ostream &os,
                    int status) const
{
    constexpr std::size_t column = 20;
    os << "usage: " << name_;
    for (const Flag &f : table)
        os << " [" << f.name << "]";
    os << "\n\n" << title_ << "\n\n";
    for (const Flag &f : table)
        os << "  " << f.name
           << std::string(column - 2 - std::min(column - 3, f.name.size()),
                          ' ')
           << f.help << "\n";
    return status;
}

int
BenchHarness::main(int argc, char **argv)
{
    BenchOptions options;
    bool help = false;
    bool list = false;
    std::vector<Flag> table = {
        {"--seed=S", &options.seed,
         "base seed of every simulated machine (default 1)"},
        {"--help", &help, "this text"},
    };
    if (!customMain_) {
        table.insert(
            table.end(),
            {
                {"--jobs=N", &options.jobs,
                 "run scenarios on N threads (0 = one per hardware "
                 "thread)",
                 kMaxThreads},
                {"--cluster-jobs=N", &options.clusterJobs,
                 "threads inside each cluster scenario (0 = one per "
                 "hardware thread)",
                 kMaxThreads},
                {"--trace=FILE", &options.tracePath,
                 "export per-scenario Chrome trace JSON and a CSV "
                 "summary"},
                {"--json=FILE", &options.jsonPath,
                 "write machine-readable results (\"-\" = stdout)"},
                {"--metrics=FILE", &options.metricsPath,
                 "write the per-scenario simulated-PMU dump (\"-\" = "
                 "stdout)"},
                {"--faults=SPEC", &options.faultsSpec,
                 "inject deterministic faults, e.g. "
                 "'ipi.drop@n3;ipi.delay@p0.1,d2us'"},
                {"--breakdown", &options.breakdown,
                 "print a Table 1-style breakdown per scenario"},
                {"--list", &list, "list scenarios and exit"},
            });
    }
    table.insert(table.end(), flags_.begin(), flags_.end());

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::string key = arg.substr(0, arg.find('='));
        const auto row =
            std::find_if(table.begin(), table.end(), [&](const Flag &f) {
                return f.name.substr(0, f.name.find('=')) == key;
            });
        if (row == table.end()) {
            std::cerr << name_ << ": unknown argument '" << arg << "'\n";
            return usage(table, std::cerr, 2);
        } else if (!assign(*row, arg)) {
            std::cerr << name_ << ": bad argument '" << arg << "'\n";
            return usage(table, std::cerr, 2);
        }
    }

    FaultPlan faults;
    try {
        faults = FaultPlan::parse(options.faultsSpec);
    } catch (const FatalError &e) {
        std::cerr << name_ << ": bad --faults value: " << e.what()
                  << "\n";
        return usage(table, std::cerr, 2);
    }

    if (help)
        return usage(table, std::cout, 0);
    if (customMain_)
        return customMain_(options);
    if (list) {
        std::cout << name_ << ": " << title_ << "\n";
        for (const auto &s : scenarios_)
            std::cout << "  " << s.name << "  ["
                      << virtModeName(s.mode) << "]\n";
        return 0;
    }
    return sweepMain(options, std::move(faults));
}

int
BenchHarness::sweepMain(const BenchOptions &options, FaultPlan faults) const
{
    // A thread count of 0 asks for one per hardware thread.
    const auto threads = [](std::uint64_t n) {
        return n == 0 ? EpochCrew::hardwareThreads() : static_cast<int>(n);
    };
    SweepOptions sweep_options;
    sweep_options.jobs = threads(options.jobs);
    sweep_options.clusterJobs = threads(options.clusterJobs);
    sweep_options.baseSeed = options.seed;
    sweep_options.tracePath = options.tracePath;
    sweep_options.faults = std::move(faults);

    SweepResults results;
    try {
        results = runSweep(scenarios_, sweep_options);
    } catch (const SimError &e) {
        std::cerr << name_ << ": " << e.what() << "\n";
        return 1;
    }

    if (!options.jsonPath.empty() &&
        !writeOutput(name_, options.jsonPath, [&](std::ostream &os) {
            writeJson(os, name_, title_, results, options);
        }))
        return 1;
    if (!options.metricsPath.empty() &&
        !writeOutput(name_, options.metricsPath, [&](std::ostream &os) {
            writeMetricsJson(os, name_, title_, results, options);
        }))
        return 1;

    if (options.breakdown) {
        for (const auto &r : results.all()) {
            std::cout << "== " << r.name() << " ["
                      << virtModeName(r.mode()) << "] ==\n";
            r.metricsSnapshot().writeBreakdown(std::cout);
            std::cout << "\n";
        }
    }

    if (!results.allOk()) {
        for (const auto &r : results.all()) {
            if (!r.ok())
                std::cerr << name_ << ": scenario '" << r.name()
                          << "' failed: " << r.error() << "\n";
        }
        return 1;
    }

    if (report_) {
        try {
            report_(results);
        } catch (const SimError &e) {
            std::cerr << name_ << ": report failed: " << e.what()
                      << "\n";
            return 1;
        }
    }
    return 0;
}

} // namespace svtsim
