/**
 * @file
 * Ablation: sensitivity of the memcached SLA result (Figure 8) to the
 * L1 housekeeping interference model — the mechanism behind the
 * paper's "lower and less noisy latencies" observation (Section
 * 6.3.1). Sweeping the per-request interference shows how much of
 * the SW SVt win comes from overlap vs from cheaper trap handling.
 */

#include <cstdio>
#include <string>

#include "io/cross_link.h"
#include "io/virtio_net.h"
#include "stats/table.h"
#include "system/bench_harness.h"
#include "workloads/memcached.h"

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
            bench.add(
                hkName(mode, per_req), mode,
                [per_req](NestedSystem &sys, ScenarioResult &r) {
                    CrossLink link(
                        sys.machine(),
                        sys.machine().costs().wireLatency,
                        sys.machine().costs().linkBitsPerSec);
                    VirtioNetStack net(sys.stack(), link.port(0));
                    MemcachedBench mc(sys.stack(), net, link.port(1),
                                      42, 1000.0, usec(14.5), per_req);
                    MemcachedPoint pt = mc.runLoad(qps, msec(250));
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
            "At 0 events/request the SW SVt win is pure trap "
            "acceleration; the tail gap widens with interference\n"
            "because the SVt-thread lets the L1 vCPU drain its "
            "housekeeping concurrently.\n");
    });
    return bench.main(argc, argv);
}
