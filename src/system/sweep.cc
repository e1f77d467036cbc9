#include "system/sweep.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "sim/log.h"
#include "system/cluster.h"
#include "system/epoch_crew.h"
#include "system/trace_session.h"

namespace svtsim {

ClusterContext::ClusterContext(std::uint64_t seed, int jobs,
                               const SweepOptions &options,
                               std::string name)
    : seed_(seed), jobs_(jobs), options_(options),
      scenarioName_(std::move(name))
{
}

ClusterContext::~ClusterContext() = default;

void
ClusterContext::prepare(Cluster &cluster)
{
    // A realized cluster has at least one machine, so a context that
    // ran one already holds a trace session.
    simAssert(traces_.empty(),
              "ClusterContext: a scenario may run only one cluster");
    for (int i = 0; i < cluster.size(); ++i) {
        Machine &m = cluster.machine(i);
        if (!options_.faults.empty())
            m.installFaultPlan(options_.faults);
        traces_.push_back(std::make_unique<ScopedTrace>(
            m, options_.tracePath,
            scenarioName_ + "-m" + std::to_string(i)));
    }
}

void
ClusterContext::capture(Cluster &cluster)
{
    for (int i = 0; i < cluster.size(); ++i)
        clocks_.push_back(cluster.machine(i).now());
    snapshot_ = cluster.machine(0).snapshotMetrics();
    for (auto &t : traces_) {
        std::string report = t->finish();
        if (!report.empty()) {
            if (!traceReport_.empty())
                traceReport_ += '\n';
            traceReport_ += report;
        }
    }
}

void
ScenarioResult::record(const std::string &key, double value)
{
    for (auto &kv : metrics_) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    metrics_.emplace_back(key, value);
}

bool
ScenarioResult::has(const std::string &key) const
{
    for (const auto &kv : metrics_) {
        if (kv.first == key)
            return true;
    }
    return false;
}

double
ScenarioResult::metric(const std::string &key) const
{
    for (const auto &kv : metrics_) {
        if (kv.first == key)
            return kv.second;
    }
    fatal("scenario '%s' has no metric '%s'", name_.c_str(),
          key.c_str());
}

const ScenarioResult &
SweepResults::at(const std::string &name) const
{
    for (const auto &r : results_) {
        if (r.name() == name)
            return r;
    }
    fatal("sweep has no scenario '%s'", name.c_str());
}

bool
SweepResults::allOk() const
{
    for (const auto &r : results_) {
        if (!r.ok())
            return false;
    }
    return true;
}

/** Internal executor; friend of the result types. */
class SweepRunner
{
  public:
    static SweepResults run(const std::vector<Scenario> &scenarios,
                            const SweepOptions &options);

  private:
    /** Run one scenario into its slot; never throws (an exception is
     *  captured on the result, as a crew step must not throw). */
    static void runOne(const Scenario &scenario,
                       const SweepOptions &options,
                       ScenarioResult &result);
};

void
SweepRunner::runOne(const Scenario &scenario,
                    const SweepOptions &options, ScenarioResult &result)
{
    result.name_ = scenario.name;
    result.mode_ = scenario.mode;
    result.seed_ = options.baseSeed;
    try {
        if (scenario.clusterRun) {
            ClusterContext ctx(result.seed_, options.clusterJobs,
                               options, scenario.name);
            scenario.clusterRun(ctx, result);
            // Every machine's final clock joins the determinism
            // fingerprint: a divergence anywhere in the cluster shows
            // up in the JSON diff, not just on machine 0.
            for (std::size_t i = 0; i < ctx.clocks_.size(); ++i)
                result.record("final_ticks_m" + std::to_string(i),
                              static_cast<double>(ctx.clocks_[i]));
            if (!ctx.clocks_.empty())
                result.finalTicks_ = ctx.clocks_[0];
            result.metricsSnapshot_ = std::move(ctx.snapshot_);
            result.traceReport_ = std::move(ctx.traceReport_);
            return;
        }
        StackConfig config = scenario.config;
        config.mode = scenario.mode;
        NestedSystem sys =
            scenario.topology
                ? NestedSystem(*scenario.topology, config,
                               result.seed_)
                : NestedSystem(scenario.mode, config, result.seed_);
        ScopedTrace trace(sys.machine(), options.tracePath,
                          scenario.name);
        if (!options.faults.empty())
            sys.machine().installFaultPlan(options.faults);
        scenario.run(sys, result);
        result.finalTicks_ = sys.machine().now();
        result.metricsSnapshot_ = sys.machine().snapshotMetrics();
        // Capture instead of letting the destructor print: crew
        // threads must not write to stderr in completion order.
        result.traceReport_ = trace.finish();
    } catch (const std::exception &e) {
        result.error_ = e.what();
    }
}

SweepResults
SweepRunner::run(const std::vector<Scenario> &scenarios,
                 const SweepOptions &options)
{
    std::set<std::string> names;
    for (const auto &s : scenarios) {
        if (!names.insert(s.name).second)
            fatal("sweep: duplicate scenario name '%s'",
                  s.name.c_str());
        if (!s.run && !s.clusterRun)
            fatal("sweep: scenario '%s' has no run callback",
                  s.name.c_str());
        if (s.run && s.clusterRun)
            fatal("sweep: scenario '%s' has both run and clusterRun",
                  s.name.c_str());
    }

    SweepResults results;
    const std::size_t n = scenarios.size();
    results.results_.resize(n);

    // Step k of a round runs scenario first + k into its slot; the
    // caller is the crew's last hand, so at most min(jobs, scenarios)
    // threads run scenarios and none are started at jobs <= 1.
    std::size_t first = 0;
    EpochCrew crew(std::min(options.jobs, static_cast<int>(n)) - 1,
                   [&](std::size_t k) {
                       runOne(scenarios[first + k], options,
                              results.results_[first + k]);
                   });
    for (; first < n; first += EpochCrew::kMaxSteps)
        crew.run(std::min(EpochCrew::kMaxSteps, n - first));
    return results;
}

SweepResults
runSweep(const std::vector<Scenario> &scenarios,
         const SweepOptions &options)
{
    SweepResults results = SweepRunner::run(scenarios, options);
    // Conservation reports surface once every scenario has finished,
    // in declaration order, so stderr is reproducible across --jobs.
    for (const auto &r : results.all()) {
        if (!r.traceReport().empty())
            std::fprintf(stderr, "%s\n", r.traceReport().c_str());
    }
    return results;
}

} // namespace svtsim
