/**
 * @file
 * Unified bench entry point.
 *
 * Every bench binary declares its scenarios (the sweep), its own flags
 * and a report callback (the tables), then delegates main() to a
 * BenchHarness, the only code that reads the command line. main()
 * parses one flag table, the harness's rows plus the bench's, with
 * decimal-only numbers (sim/decimal.h), generates `--help` from it,
 * runs the sweep on the deterministic parallel engine, writes the
 * JSON results and reports in declaration order. Output is
 * byte-identical for any `--jobs` value.
 *
 * A bench that is not a sweep (a wall-clock speed bench) installs a
 * custom main; its table is `--seed`, `--help` and its own flags.
 */

#ifndef SVTSIM_SYSTEM_BENCH_HARNESS_H
#define SVTSIM_SYSTEM_BENCH_HARNESS_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "system/sweep.h"

namespace svtsim {

/** The harness's own flags, parsed (main()'s table has their help). */
struct BenchOptions
{
    std::uint64_t jobs = 1;        ///< --jobs (0 = one per hw thread)
    std::uint64_t seed = 1;        ///< --seed
    std::string tracePath;         ///< --trace
    std::string jsonPath;          ///< --json ("-" = stdout)
    std::string metricsPath;       ///< --metrics ("-" = stdout)
    std::string faultsSpec;        ///< --faults (see FaultPlan::parse)
    std::uint64_t clusterJobs = 1; ///< --cluster-jobs (0 as for --jobs)
    bool breakdown = false;        ///< --breakdown
};

/**
 * Write to @p path through @p write: stdout for "-", else the file,
 * created or truncated. Returns false, having named the path on
 * stderr under @p bench, when the file cannot be opened.
 */
bool writeOutput(const std::string &bench, const std::string &path,
                 const std::function<void(std::ostream &)> &write);

/** Declarative bench definition plus the shared main(). */
class BenchHarness
{
  public:
    using ReportFn = std::function<void(const SweepResults &results)>;
    using CustomMainFn = std::function<int(const BenchOptions &options)>;

    /** Largest thread count a flag accepts (--jobs, --cluster-jobs). */
    static constexpr std::uint64_t kMaxThreads = 4096;

    /** One row of the flag table. */
    struct Flag
    {
        /** `--name` (a bool, set when present) or `--name=VALUE`;
         *  the part before '=' is matched. */
        std::string name;
        std::variant<bool *, std::uint64_t *, std::string *> target;
        std::string help;
        std::uint64_t max = UINT64_MAX; ///< Largest accepted number.
    };

    /** @param name Bench identifier (JSON "bench" field).
     *  @param title One-line description for --help/--list. */
    BenchHarness(std::string name, std::string title)
        : name_(std::move(name)), title_(std::move(title))
    {
    }

    /** Append a scenario; runs in declaration order. */
    Scenario &add(Scenario scenario);

    /** Shorthand for the common default-config case. */
    Scenario &add(std::string name, VirtMode mode, ScenarioFn run);

    /** Shorthand with a custom StackConfig. */
    Scenario &add(std::string name, VirtMode mode, StackConfig config,
                  ScenarioFn run);

    /** Append a multi-machine (cluster) scenario; `mode` labels the
     *  scenario in JSON (the callback builds its own machines). */
    Scenario &addCluster(std::string name, VirtMode mode,
                         ClusterScenarioFn run);

    /** Install the report callback (prints the human tables). */
    void onReport(ReportFn fn) { report_ = std::move(fn); }

    /**
     * Declare a bench flag: @p target is a bool, a std::uint64_t
     * (decimal digits, at most @p max) or a std::string, keeps its
     * value when the flag is absent, and is set before any scenario
     * or custom main runs, so read it there, not when declaring.
     */
    template <class T>
    void
    flag(std::string name, T &target, std::string help,
         std::uint64_t max = UINT64_MAX)
    {
        flags_.push_back({std::move(name), &target, std::move(help), max});
    }

    /** Replace the sweep with a custom main. */
    void onCustomMain(CustomMainFn fn) { customMain_ = std::move(fn); }

    /**
     * The shared main(): parse flags, run the sweep on `--jobs`
     * workers, write JSON, report. Returns a process exit status:
     * 0 on success, 1 when a scenario failed, 2 on a CLI error.
     */
    int main(int argc, char **argv);

  private:
    int usage(const std::vector<Flag> &table, std::ostream &os,
              int status) const;
    int sweepMain(const BenchOptions &options, FaultPlan faults) const;

    std::string name_;
    std::string title_;
    std::vector<Scenario> scenarios_;
    std::vector<Flag> flags_;
    ReportFn report_;
    CustomMainFn customMain_;
};

} // namespace svtsim

#endif // SVTSIM_SYSTEM_BENCH_HARNESS_H
