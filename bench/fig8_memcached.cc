/**
 * @file
 * Regenerates Figure 8: memcached latency as a function of request
 * load (Facebook ETC via a mutilate-style open-loop client), baseline
 * vs. the SW SVt prototype, against a 500 us 99th-percentile SLA.
 *
 * Paper: 2.20x higher throughput within the p99 SLA, 1.43x at the
 * average-latency SLA.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "io/virtio_net.h"
#include "stats/table.h"
#include "system/bench_harness.h"
#include "system/cluster_spec.h"
#include "workloads/remote_peer.h"

using namespace svtsim;

namespace {

constexpr double slaUsec = 500.0;

std::string
pointName(VirtMode mode, double qps)
{
    return std::string(virtModeName(mode)) + "-" +
           std::to_string(static_cast<int>(qps)) + "qps";
}

/** Highest offered load whose metric stays within the SLA. */
double
slaThroughput(const SweepResults &res, VirtMode mode,
              const std::vector<double> &loads, const char *key)
{
    double best = 0;
    for (double qps : loads) {
        const auto &r = res.at(pointName(mode, qps));
        double metric = r.metric(key);
        if (metric > 0 && metric <= slaUsec)
            best = std::max(best, r.metric("achieved_qps"));
    }
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<double> loads;
    for (double q = 2000; q <= 26000; q += 1500)
        loads.push_back(q);

    BenchHarness bench("fig8_memcached",
                       "Figure 8: memcached latency vs request load "
                       "(ETC workload)");
    // The mutilate client is a real second machine (the paper's
    // bare-metal load-generator box) across a CrossLink.
    for (VirtMode mode : {VirtMode::Nested, VirtMode::SwSvt}) {
        for (double qps : loads) {
            bench.addCluster(
                pointName(mode, qps), mode,
                [mode, qps](ClusterContext &ctx, ScenarioResult &r) {
                    Cluster b =
                        ClusterSpec()
                            .machine("server", mode)
                            .machine("client", VirtMode::Native)
                            .link("server", "client")
                            .realize(ctx);

                    VirtioNetStack net(b.stack("server"),
                                       b.port("server", "client"));
                    MemcachedServer server(b.stack("server"), net);
                    MutilateClient client(b.machine("client"),
                                          b.port("client", "server"));

                    const Ticks duration = msec(300);
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
                    r.record("achieved_qps", pt.achievedQps);
                });
        }
    }

    bench.onReport([&](const SweepResults &res) {
        Table t({"Offered (qps)", "base avg (us)", "base p99 (us)",
                 "SVt avg (us)", "SVt p99 (us)"});
        for (double qps : loads) {
            const auto &base = res.at(pointName(VirtMode::Nested, qps));
            const auto &svt = res.at(pointName(VirtMode::SwSvt, qps));
            t.addRow({Table::num(qps, 0),
                      Table::num(base.metric("avg_usec"), 0),
                      Table::num(base.metric("p99_usec"), 0),
                      Table::num(svt.metric("avg_usec"), 0),
                      Table::num(svt.metric("p99_usec"), 0)});
        }
        std::printf("Figure 8: memcached latency vs request load "
                    "(ETC workload)\n\n%s\n",
                    t.render().c_str());

        double base_p99 =
            slaThroughput(res, VirtMode::Nested, loads, "p99_usec");
        double svt_p99 =
            slaThroughput(res, VirtMode::SwSvt, loads, "p99_usec");
        double base_avg =
            slaThroughput(res, VirtMode::Nested, loads, "avg_usec");
        double svt_avg =
            slaThroughput(res, VirtMode::SwSvt, loads, "avg_usec");
        std::printf("throughput within %.0f us SLA:\n", slaUsec);
        std::printf("  p99: baseline %.0f qps, SVt %.0f qps -> %.2fx "
                    "(paper: 2.20x)\n",
                    base_p99, svt_p99,
                    base_p99 > 0 ? svt_p99 / base_p99 : 0.0);
        std::printf("  avg: baseline %.0f qps, SVt %.0f qps -> %.2fx "
                    "(paper: 1.43x)\n",
                    base_avg, svt_avg,
                    base_avg > 0 ? svt_avg / base_avg : 0.0);
    });
    return bench.main(argc, argv);
}
