/**
 * @file
 * Deterministic parallel sweep engine.
 *
 * A sweep runs a declarative list of independent scenarios — each a
 * (VirtMode, StackConfig, seed) triple plus a run callback — as the
 * indexed steps of an EpochCrew (system/epoch_crew.h), one fully
 * isolated NestedSystem per scenario. Scenarios share no mutable state
 * (each NestedSystem owns its machine, event queue and RNG), so
 * results are bit-identical regardless of the thread count: every
 * scenario writes into its own pre-allocated result slot and
 * aggregation happens in declaration order once every scenario has
 * finished.
 *
 * Determinism contract:
 *  - a scenario's result is a pure function of (mode, config,
 *    topology, seed) and its run callback;
 *  - runSweep(jobs=1) and runSweep(jobs=N) produce identical
 *    SweepResults, including scenario order, metric order and the
 *    finalTicks fingerprint;
 *  - trace conservation reports are emitted in declaration order,
 *    never in thread completion order.
 */

#ifndef SVTSIM_SYSTEM_SWEEP_H
#define SVTSIM_SYSTEM_SWEEP_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/fault.h"
#include "stats/metrics.h"
#include "system/nested_system.h"

namespace svtsim {

class Cluster;
class ScenarioResult;
class ClusterContext;
class ScopedTrace;
struct SweepOptions;

/** Per-scenario measurement callback; records metrics on the result. */
using ScenarioFn =
    std::function<void(NestedSystem &sys, ScenarioResult &result)>;

/**
 * Multi-machine scenario callback: realizes a ClusterSpec, wires its
 * workloads and drivers, and runs it with Cluster::run(ctx). See
 * ClusterContext.
 */
using ClusterScenarioFn =
    std::function<void(ClusterContext &ctx, ScenarioResult &result)>;

/**
 * One point of the design space: the system to assemble and the
 * measurement to run on it. Scenario names must be unique within a
 * sweep; they key result lookup, label trace files and name JSON
 * records.
 */
struct Scenario
{
    std::string name;
    VirtMode mode = VirtMode::Nested;
    StackConfig config{};
    /** Topology override; defaults to paperTopology(mode). */
    std::optional<MachineTopology> topology;
    ScenarioFn run;
    /** Cluster (multi-machine) scenario body; a scenario has exactly
     *  one of run / clusterRun. The engine passes the sweep seed and
     *  --cluster-jobs through the ClusterContext; mode/config here
     *  describe the scenario for JSON, the callback builds the
     *  machines itself. */
    ClusterScenarioFn clusterRun;
};

/**
 * Execution context handed to a ClusterScenarioFn.
 *
 * Usage inside the callback:
 *
 *     Cluster cluster = spec.realize(ctx);   // seeded from the sweep
 *     ... wire workloads, cluster.driver(name, fn) ...
 *     cluster.run(ctx);
 *     ... record workload metrics ...
 *
 * Cluster::run(ctx) installs the sweep's fault plan and one trace
 * session per machine, runs the cluster with jobs() workers, and
 * captures each machine's clock, machine 0's PMU snapshot and the
 * trace reports here. Once the callback returns, the sweep records one
 * `final_ticks_m<i>` metric per machine after the callback's own (the
 * cluster determinism fingerprint, compared byte-for-byte across
 * --cluster-jobs counts). One cluster run per context.
 */
class ClusterContext
{
  public:
    ~ClusterContext();

    /** Base seed for the Cluster (the sweep's seed). */
    std::uint64_t seed() const { return seed_; }
    /** --cluster-jobs: worker count for Cluster::run (1 = the
     *  sequential oracle). */
    int jobs() const { return jobs_; }

  private:
    friend class Cluster;
    friend class SweepRunner;
    ClusterContext(std::uint64_t seed, int jobs,
                   const SweepOptions &options, std::string name);

    /** Before the run: installs the sweep-level fault plan on every
     *  machine and attaches one trace session per machine (labeled
     *  `<scenario>-m<i>`). Panics on a second run. */
    void prepare(Cluster &cluster);

    /** After the run: captures clocks, PMU snapshot and trace
     *  reports. */
    void capture(Cluster &cluster);

    std::uint64_t seed_;
    int jobs_;
    const SweepOptions &options_;
    std::string scenarioName_;
    std::vector<std::unique_ptr<ScopedTrace>> traces_;
    /** Each machine's clock when the run ended, by machine id. */
    std::vector<Ticks> clocks_;
    MetricsSnapshot snapshot_;
    std::string traceReport_;
};

/** Outcome of one scenario, in a caller-owned slot. */
class ScenarioResult
{
  public:
    /** Record a named metric; order is preserved (it is the JSON and
     *  comparison order). Re-recording a name overwrites in place. */
    void record(const std::string &key, double value);

    bool has(const std::string &key) const;

    /** Value of @p key; raises FatalError naming the scenario and key
     *  when absent (typo-proofing report callbacks). */
    double metric(const std::string &key) const;

    const std::vector<std::pair<std::string, double>> &metrics() const
    {
        return metrics_;
    }

    const std::string &name() const { return name_; }
    VirtMode mode() const { return mode_; }
    std::uint64_t seed() const { return seed_; }

    /** machine.now() when the run callback returned: the determinism
     *  fingerprint (identical across reruns and worker counts). */
    Ticks finalTicks() const { return finalTicks_; }

    /** Non-empty when the scenario raised an exception. */
    const std::string &error() const { return error_; }
    bool ok() const { return error_.empty(); }

    /** The trace conservation report line ("" without --trace). */
    const std::string &traceReport() const { return traceReport_; }

    /** Simulated-PMU snapshot taken when the run callback returned
     *  (deterministic: a pure function of the scenario inputs). */
    const MetricsSnapshot &metricsSnapshot() const
    {
        return metricsSnapshot_;
    }

  private:
    friend class SweepRunner;

    std::string name_;
    VirtMode mode_ = VirtMode::Nested;
    std::uint64_t seed_ = 0;
    Ticks finalTicks_ = 0;
    std::string error_;
    std::string traceReport_;
    std::vector<std::pair<std::string, double>> metrics_;
    MetricsSnapshot metricsSnapshot_;
};

/** Results of a sweep, in scenario declaration order. */
class SweepResults
{
  public:
    const std::vector<ScenarioResult> &all() const { return results_; }

    /** Result of the named scenario; FatalError when absent. */
    const ScenarioResult &at(const std::string &name) const;

    /** Shorthand for at(scenario).metric(key). */
    double metric(const std::string &scenario,
                  const std::string &key) const
    {
        return at(scenario).metric(key);
    }

    /** True when every scenario completed without error. */
    bool allOk() const;

  private:
    friend class SweepRunner;

    std::vector<ScenarioResult> results_;
};

/** Execution knobs of a sweep (the BenchHarness CLI surface). */
struct SweepOptions
{
    /** Threads running scenarios, the caller included, at most one
     *  per scenario; 1 runs them inline in declaration order. */
    int jobs = 1;
    /** Seed every scenario runs at. */
    std::uint64_t baseSeed = 1;
    /** When non-empty, each scenario exports a trace labeled with its
     *  name (see ScopedTrace). */
    std::string tracePath;
    /** Fault plan installed on every scenario's machine before the run
     *  callback executes (see FaultPlan::parse). Per-site streams are
     *  seeded from the scenario's seed, so injections stay part of the
     *  deterministic fingerprint regardless of jobs. */
    FaultPlan faults{};
    /** Workers for intra-scenario (cluster) parallelism, passed to
     *  cluster scenarios via ClusterContext::jobs(). 1 is the
     *  sequential oracle; any value produces byte-identical results.
     *  Multiplies with `jobs` when both exceed 1. */
    int clusterJobs = 1;
};

/**
 * Run every scenario and aggregate results in declaration order.
 *
 * Scenario names must be unique and every scenario must have a run
 * callback (FatalError otherwise, before anything executes). A
 * std::exception (SimError or other) raised inside a scenario is
 * captured on its result, not propagated, whichever thread ran it;
 * callers check SweepResults::allOk().
 */
SweepResults runSweep(const std::vector<Scenario> &scenarios,
                      const SweepOptions &options);

} // namespace svtsim

#endif // SVTSIM_SYSTEM_SWEEP_H
