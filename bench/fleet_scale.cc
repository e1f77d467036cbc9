/**
 * @file
 * Fleet-scale multi-tenant bench: the L0 fleet scheduler places a
 * mixed tenant set (a memcached pool, a TPC-C database, soft-realtime
 * video) across the full Table 4 topology (2 sockets x 8 cores x
 * 2-way SMT) under each SMT placement policy, and reports per-tenant
 * SLO attainment, interference, and fleet throughput within SLA.
 *
 * The paper's Table 4 claim at fleet scale: dedicating each slot's
 * SMT sibling to its SVt thread (svt-pair) beats leaving the sibling
 * idle (isolate) — the sibling pays for itself — and consolidating a
 * second vCPU onto the sibling (sibling-share) trades the extra
 * capacity for contention-inflated tail latencies.
 *
 * Results are byte-identical for any --jobs / --cluster-jobs value
 * (CI diffs the JSON across worker counts).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "stats/table.h"
#include "system/bench_harness.h"
#include "system/fleet/fleet_scheduler.h"

using namespace svtsim;

namespace {

/** The mixed tenant set; quick mode shrinks demand and durations so
 *  CI sanity runs stay fast. */
FleetSpec
baseSpec(bool quick)
{
    FleetSpec spec;
    spec.topology = MachineTopology{2, 8, 2};
    TenantSpec mc = memcachedTenant("mc", quick ? 2 : 6, 6000.0);
    mc.duration = quick ? msec(60) : msec(200);
    TenantSpec db = tpccTenant("db", quick ? 1 : 5);
    db.duration = quick ? msec(100) : msec(400);
    TenantSpec vid = videoTenant("video", quick ? 1 : 5, 60.0, 0.01);
    vid.duration = quick ? msec(500) : sec(2);
    spec.tenants = {mc, db, vid};
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    const PlacementPolicy policies[] = {PlacementPolicy::SvtPair,
                                        PlacementPolicy::SiblingShare,
                                        PlacementPolicy::Isolate};

    BenchHarness bench("fleet_scale",
                       "fleet-scale multi-tenant SMT placement "
                       "policy sweep on the full 2x8x2 topology");
    bool quick = false;
    bench.flag("--quick", quick, "CI sizes: fewer vCPUs, shorter runs");
    for (PlacementPolicy policy : policies) {
        bench.addCluster(
            placementPolicyName(policy),
            policy == PlacementPolicy::SvtPair ? FleetSpec::pairedMode
                                               : VirtMode::Nested,
            [policy, &quick](ClusterContext &ctx, ScenarioResult &r) {
                FleetSpec spec = baseSpec(quick);
                spec.policy = policy;
                FleetScheduler scheduler(spec, ctx.seed());
                scheduler.run(ctx, r);
            });
    }

    bench.onReport([&](const SweepResults &res) {
        const FleetSpec spec = baseSpec(quick);
        std::printf("Fleet-scale SMT placement policies: %d tenants, "
                    "%d vCPUs on %dx%dx%d\n\n",
                    static_cast<int>(spec.tenants.size()),
                    totalVcpuDemand(spec), spec.topology.numaNodes,
                    spec.topology.coresPerNode,
                    spec.topology.threadsPerCore);

        Table per({"Tenant", "SLO", "svt-pair", "sibling-share",
                   "isolate"});
        for (const TenantSpec &t : spec.tenants) {
            std::vector<std::string> row{t.name,
                                         Table::num(t.sloTarget, 2)};
            for (PlacementPolicy policy : policies) {
                const ScenarioResult &r =
                    res.at(placementPolicyName(policy));
                row.push_back(
                    Table::num(r.metric(t.name + "_slo_value"), 2) +
                    (r.metric(t.name + "_slo_met") > 0 ? " ok"
                                                       : " MISS"));
            }
            per.addRow(row);
        }
        std::printf("Per-tenant SLO value (memcached: p99 us; tpcc: "
                    "mean txn ms; video: drop fraction)\n\n%s\n",
                    per.render().c_str());

        Table fleet({"Policy", "Fleet p99 (us)", "QPS under SLA",
                     "Tenants met", "Mean interference"});
        for (PlacementPolicy policy : policies) {
            const ScenarioResult &r =
                res.at(placementPolicyName(policy));
            fleet.addRow(
                {placementPolicyName(policy),
                 Table::num(r.metric("fleet_p99_usec"), 1),
                 Table::num(r.metric("fleet_qps_under_sla"), 0),
                 Table::num(r.metric("fleet_tenants_met"), 0),
                 Table::num(r.metric("fleet_mean_interference") * 100,
                            1) +
                     "%"});
        }
        std::printf("%s\n", fleet.render().c_str());

        const double pairP99 = res.metric("svt-pair", "fleet_p99_usec");
        const double isoP99 = res.metric("isolate", "fleet_p99_usec");
        std::printf("svt-pair p99 %.1f us vs isolate %.1f us: the SMT "
                    "sibling %s for itself (paper Table 4: SVt "
                    "pairing beats an idle sibling)\n",
                    pairP99, isoP99,
                    pairP99 <= isoP99 ? "pays" : "DOES NOT pay");
    });
    return bench.main(argc, argv);
}
