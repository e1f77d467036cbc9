/**
 * @file
 * L0 fleet scheduler: realizes a FleetSpec into a Cluster and runs it.
 *
 * Each placement slot becomes one single-core machine in the cluster
 * (topology 1x1xSMT) hosting the slot's full L0/L1/L2 stack — the
 * fleet is a rack of such per-core stacks, exactly how an L0 operator
 * carves a Table 4 box into tenant slots. The placement policy decides
 * what the slot's SMT sibling does:
 *
 *  - svt-pair: the slot runs an SVt stack (SwSvt/HwSvt per
 *    FleetSpec::pairedMode); the sibling is the SVt thread.
 *  - sibling-share: the slot runs a conventional Nested stack and the
 *    sibling hosts *another tenant's* vCPU; both pay an SMT-contention
 *    tax on their CPU-bound costs (FleetSpec::smtContention).
 *  - isolate: conventional Nested stack, sibling idle, no tax.
 *
 * Tenant drivers ride the conservative parallel engine: memcached
 * tenants get a bare-metal loadgen machine fanned out over per-slot
 * CrossLinks (per-pair lookahead keeps those windows at the ToR-wire
 * scale), while TPC-C and video slots are link-less and run to
 * completion in a single window. The whole run is a pure function of
 * (spec, seed): byte-identical for any --jobs/--cluster-jobs.
 */

#ifndef SVTSIM_SYSTEM_FLEET_FLEET_SCHEDULER_H
#define SVTSIM_SYSTEM_FLEET_FLEET_SCHEDULER_H

#include <cstdint>

#include "stats/fleet_rollup.h"
#include "system/cluster_spec.h"
#include "system/fleet/fleet_spec.h"

namespace svtsim {

class FleetScheduler
{
  public:
    /** Validates @p spec (FatalError on a malformed one) and computes
     *  the placement; nothing is built until run(). */
    FleetScheduler(const FleetSpec &spec, std::uint64_t seed);

    const FleetSpec &spec() const { return spec_; }
    const FleetPlacement &placement() const { return placement_; }

    /** Cluster machine name of placement slot @p i. */
    std::string slotMachineName(int i) const;

    /**
     * Build the fleet, run it with ctx.jobs() workers under the
     * harness context (fault plan, traces, fingerprints), record the
     * per-tenant and fleet metrics on @p result, and return the
     * rollup. Call from a ClusterScenarioFn.
     */
    FleetOutcome run(ClusterContext &ctx, ScenarioResult &result);

    /** Standalone run (tests): no harness context. */
    FleetOutcome run(int clusterJobs);

  private:
    FleetOutcome execute(ClusterContext *ctx, ScenarioResult *result,
                         int jobs);

    FleetSpec spec_;
    std::uint64_t seed_;
    FleetPlacement placement_;
};

} // namespace svtsim

#endif // SVTSIM_SYSTEM_FLEET_FLEET_SCHEDULER_H
