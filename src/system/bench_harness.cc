#include "system/bench_harness.h"

#include <charconv>
#include <fstream>
#include <iostream>
#include <ostream>

#include "sim/json.h"
#include "sim/log.h"
#include "system/epoch_crew.h"

namespace svtsim {

namespace {

bool
parseUint(const std::string &text, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    std::uint64_t v = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    out = v;
    return true;
}

} // namespace

BenchHarness::BenchHarness(std::string name, std::string title)
    : name_(std::move(name)), title_(std::move(title))
{
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
    Scenario s;
    s.name = std::move(name);
    s.mode = mode;
    s.config = config;
    s.run = std::move(run);
    return add(std::move(s));
}

Scenario &
BenchHarness::addCluster(std::string name, VirtMode mode,
                         ClusterScenarioFn run)
{
    Scenario s;
    s.name = std::move(name);
    s.mode = mode;
    s.clusterRun = std::move(run);
    return add(std::move(s));
}

int
BenchHarness::usage(std::ostream &os, int status) const
{
    os << "usage: " << name_
       << " [--jobs=N] [--cluster-jobs=N] [--seed=S] [--trace=FILE]"
          " [--json=FILE] [--metrics=FILE] [--faults=SPEC]"
          " [--breakdown] [--list]\n\n"
       << title_ << "\n\n"
       << "  --jobs=N        run scenarios on N worker threads\n"
       << "                  (0 = one per hardware thread; default 1)\n"
       << "  --cluster-jobs=N  workers inside each cluster scenario\n"
       << "                  (0 = one per hardware thread; default 1 =\n"
       << "                  sequential oracle; results byte-identical\n"
       << "                  for any value)\n"
       << "  --seed=S        base seed for every scenario's "
          "NestedSystem (default 1)\n"
       << "  --trace=FILE    export per-scenario Chrome trace JSON and "
          "a CSV summary\n"
       << "  --json=FILE     write machine-readable results "
          "(\"-\" = stdout)\n"
       << "  --metrics=FILE  write the per-scenario simulated-PMU "
          "dump (\"-\" = stdout)\n"
       << "  --faults=SPEC   inject deterministic faults; SPEC is "
          "';'-separated\n"
       << "                  site@trigger clauses, e.g. "
          "'ipi.drop@n3;ipi.delay@p0.1,d2us'\n"
       << "  --breakdown     print a Table 1-style breakdown per "
          "scenario\n"
       << "  --list          list scenarios and exit\n"
       << "  --help          this text\n";
    if (customMain_)
        os << "\nremaining arguments are forwarded to the underlying "
              "benchmark runner\n";
    return status;
}

void
BenchHarness::writeJson(std::ostream &os, const SweepResults &results,
                        const BenchOptions &options) const
{
    // --jobs is deliberately absent: the JSON is a *result* artifact
    // and must be byte-identical regardless of the worker count.
    os << "{\n  \"bench\": ";
    jsonString(os, name_);
    os << ",\n  \"title\": ";
    jsonString(os, title_);
    os << ",\n  \"seed\": " << options.seed;
    if (!options.faultsSpec.empty()) {
        os << ",\n  \"faults\": ";
        jsonString(os, options.faultsSpec);
    }
    os << ",\n  \"scenarios\": [";
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

void
BenchHarness::writeMetricsJson(std::ostream &os,
                               const SweepResults &results,
                               const BenchOptions &options) const
{
    // Same contract as writeJson: --jobs is absent by design, the
    // snapshots are deterministic per scenario, and samples are
    // name-sorted, so the dump is byte-identical across worker counts.
    os << "{\n  \"bench\": ";
    jsonString(os, name_);
    os << ",\n  \"title\": ";
    jsonString(os, title_);
    os << ",\n  \"seed\": " << options.seed;
    if (!options.faultsSpec.empty()) {
        os << ",\n  \"faults\": ";
        jsonString(os, options.faultsSpec);
    }
    os << ",\n  \"scenarios\": [";
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

int
BenchHarness::main(int argc, char **argv)
{
    BenchOptions options;
    std::vector<char *> forwarded;
    if (argc > 0)
        forwarded.push_back(argv[0]);
    bool list_only = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> std::string {
            return arg.substr(std::string(prefix).size());
        };
        if (arg == "--help" || arg == "-h") {
            usage(std::cout, 0);
            return 0;
        } else if (arg == "--list") {
            list_only = true;
        } else if (arg.rfind("--jobs=", 0) == 0 ||
                   arg.rfind("--cluster-jobs=", 0) == 0) {
            // Both take a thread count; 0 asks for one per hardware
            // thread.
            const std::size_t eq = arg.find('=');
            const std::string flag = arg.substr(0, eq);
            std::uint64_t n = 0;
            if (!parseUint(arg.substr(eq + 1), n) || n > 4096) {
                std::cerr << name_ << ": bad " << flag << " value '"
                          << arg.substr(eq + 1) << "'\n";
                return usage(std::cerr, 2);
            }
            (flag == "--jobs" ? options.jobs : options.clusterJobs) =
                n == 0 ? EpochCrew::hardwareThreads() : static_cast<int>(n);
        } else if (arg.rfind("--seed=", 0) == 0) {
            if (!parseUint(value("--seed="), options.seed)) {
                std::cerr << name_ << ": bad --seed value '"
                          << value("--seed=") << "'\n";
                return usage(std::cerr, 2);
            }
        } else if (arg.rfind("--trace=", 0) == 0) {
            options.tracePath = value("--trace=");
        } else if (arg.rfind("--json=", 0) == 0) {
            options.jsonPath = value("--json=");
        } else if (arg.rfind("--metrics=", 0) == 0) {
            options.metricsPath = value("--metrics=");
        } else if (arg.rfind("--faults=", 0) == 0) {
            options.faultsSpec = value("--faults=");
            try {
                FaultPlan::parse(options.faultsSpec);
            } catch (const FatalError &e) {
                std::cerr << name_ << ": bad --faults value: "
                          << e.what() << "\n";
                return usage(std::cerr, 2);
            }
        } else if (arg == "--breakdown") {
            options.breakdown = true;
        } else if (customMain_) {
            forwarded.push_back(argv[i]);
        } else {
            std::cerr << name_ << ": unknown argument '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        }
    }

    if (list_only) {
        std::cout << name_ << ": " << title_ << "\n";
        for (const auto &s : scenarios_)
            std::cout << "  " << s.name << "  ["
                      << virtModeName(s.mode) << "]\n";
        return 0;
    }

    if (customMain_) {
        return customMain_(static_cast<int>(forwarded.size()),
                           forwarded.data(), options);
    }

    SweepOptions sweep_options;
    sweep_options.jobs = options.jobs;
    sweep_options.clusterJobs = options.clusterJobs;
    sweep_options.baseSeed = options.seed;
    sweep_options.tracePath = options.tracePath;
    if (!options.faultsSpec.empty())
        sweep_options.faults = FaultPlan::parse(options.faultsSpec);

    SweepResults results;
    try {
        results = runSweep(scenarios_, sweep_options);
    } catch (const SimError &e) {
        std::cerr << name_ << ": " << e.what() << "\n";
        return 1;
    }

    if (!options.jsonPath.empty()) {
        if (options.jsonPath == "-") {
            writeJson(std::cout, results, options);
        } else {
            std::ofstream out(options.jsonPath);
            if (!out) {
                std::cerr << name_ << ": cannot write "
                          << options.jsonPath << "\n";
                return 1;
            }
            writeJson(out, results, options);
        }
    }

    if (!options.metricsPath.empty()) {
        if (options.metricsPath == "-") {
            writeMetricsJson(std::cout, results, options);
        } else {
            std::ofstream out(options.metricsPath);
            if (!out) {
                std::cerr << name_ << ": cannot write "
                          << options.metricsPath << "\n";
                return 1;
            }
            writeMetricsJson(out, results, options);
        }
    }

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
