/**
 * @file
 * The four host-speed workloads and what one round of each reports.
 *
 * A round builds its systems (set-up, including warm-up), then runs a
 * fixed amount of simulated work (the timed phase). Every input is
 * generated from the seed, so every round of a run repeats the same
 * simulation and must produce the same fingerprint.
 */

#ifndef HOSTBENCH_WORKLOADS_H
#define HOSTBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace hostbench {

/** Work per round: Full is the benchmark, Tiny is for tests and for
 *  the traced run's probes of layers a workload does not exercise. */
enum class Size
{
    Tiny,
    Full,
};

/** A metric value plus its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};

using MetricMap = std::map<std::string, Metric>;

struct Round
{
    /** Host seconds: building systems plus warm-up. */
    double setupS = 0;
    /** Host seconds of the timed phase. */
    double wallS = 0;
    /** Process user+sys seconds of the timed phase. */
    double cpuS = 0;
    /** Host seconds of the calibration loop beside this round. */
    double calibS = 0;
    /** Simulated microseconds advanced in the timed phase, summed over
     *  machines. */
    double simUs = 0;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Hash of the simulated outcome (see Fingerprint). */
    std::uint64_t fingerprint = 0;
    /** Hash of the generated inputs. */
    std::uint64_t inputs = 0;

    /** Exact per-layer counts (identical in every round). */
    MetricMap counts;
    /** Per-layer host times derived from this round (traced rounds). */
    MetricMap times;
};

/** FNV-1a over 64-bit words; doubles hash by bit pattern. */
class Fingerprint
{
  public:
    void add(std::uint64_t v);
    void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
    void add(double v);
    void add(const std::string &s);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Workload
{
    const char *name;
    /** Cluster workers the workload runs (CPUs to pin). */
    int workers;
    Round (*run)(std::uint64_t seed, Size size, Tracer *tracer);
    /** Per-layer times taken from the tracer's span samples after the
     *  traced rounds (percentiles need every sample). */
    void (*spanTimes)(const Tracer &tracer, MetricMap &out);
};

const std::vector<Workload> &workloads();
const Workload *findWorkload(const std::string &name);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_H
