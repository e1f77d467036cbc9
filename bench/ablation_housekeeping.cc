/**
 * @file
 * Ablation: sensitivity of the memcached SLA result (Figure 8) to the
 * L1 housekeeping interference model — the mechanism behind the
 * paper's "lower and less noisy latencies" observation (Section
 * 6.3.1). Runs on Figure 8's testbed (the server in the guest, the
 * mutilate client on a bare-metal peer across a CrossLink) and sweeps
 * the per-request interference to show how much of the SW SVt win
 * comes from overlap vs from cheaper trap handling.
 */

#include <cstdio>
#include <string>

#include "io/virtio_net.h"
#include "stats/table.h"
#include "system/bench_harness.h"
#include "system/cluster_spec.h"
#include "workloads/remote_peer.h"

using namespace svtsim;

namespace {

constexpr double qps = 10000;
const double hkRates[] = {0.0, 0.3, 0.6, 0.9, 1.2, 1.8};

std::string
hkName(VirtMode mode, double per_req)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1fhk", per_req);
    return std::string(virtModeName(mode)) + "-" + buf;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchHarness bench("ablation_housekeeping",
                       "Ablation: L1 housekeeping interference "
                       "(memcached, ETC)");
    for (VirtMode mode : {VirtMode::Nested, VirtMode::SwSvt}) {
        for (double per_req : hkRates) {
            bench.addCluster(
                hkName(mode, per_req), mode,
                [mode, per_req](ClusterContext &ctx,
                                ScenarioResult &r) {
                    Cluster b =
                        ClusterSpec()
                            .machine("server", mode)
                            .machine("client", VirtMode::Native)
                            .link("server", "client")
                            .realize(ctx);

                    VirtioNetStack net(b.stack("server"),
                                       b.port("server", "client"));
                    MemcachedServer server(b.stack("server"), net, 42,
                                           per_req);
                    MutilateClient client(b.machine("client"),
                                          b.port("client", "server"));

                    const Ticks duration = msec(250);
                    MemcachedPoint pt;
                    b.driver("server", [&](NestedSystem &) {
                        server.serveUntil(duration);
                    });
                    b.driver("client", [&](NestedSystem &) {
                        pt = client.runLoad(qps, duration);
                    });

                    b.run(ctx);
                    r.record("avg_usec", pt.avgUsec);
                    r.record("p99_usec", pt.p99Usec);
                });
        }
    }

    bench.onReport([](const SweepResults &res) {
        Table t({"HK events/request", "base avg (us)",
                 "base p99 (us)", "SVt avg (us)", "SVt p99 (us)",
                 "p99 gain"});
        for (double per_req : hkRates) {
            const auto &base =
                res.at(hkName(VirtMode::Nested, per_req));
            const auto &svt =
                res.at(hkName(VirtMode::SwSvt, per_req));
            t.addRow({Table::num(per_req, 1),
                      Table::num(base.metric("avg_usec"), 0),
                      Table::num(base.metric("p99_usec"), 0),
                      Table::num(svt.metric("avg_usec"), 0),
                      Table::num(svt.metric("p99_usec"), 0),
                      Table::num(base.metric("p99_usec") /
                                     svt.metric("p99_usec"),
                                 2) +
                          "x"});
        }
        std::printf("Ablation: L1 housekeeping interference at %.0f "
                    "qps (memcached, ETC)\n\n%s\n",
                    qps, t.render().c_str());
        std::printf(
            "At 0 events/request the 1 kHz background housekeeping is "
            "still on, so the SW SVt win there is trap\n"
            "acceleration plus the overlap of that background work; "
            "the tail gap widens with per-request\n"
            "interference because the SVt-thread lets the L1 vCPU "
            "drain its housekeeping concurrently.\n");
    });
    return bench.main(argc, argv);
}
