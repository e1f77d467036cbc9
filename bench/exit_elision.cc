/**
 * @file
 * Exit-elision ladder sweep: posted interrupts + x2APIC
 * virtualization (rung 1) and multi-queue virtio with interrupt
 * coalescing (rung 2) across the three nested stacks.
 *
 * Runs fig7-class disk workloads (ioping latency + fio bandwidth) on
 * {baseline, SW SVt, HW SVt} x {posted-intr off/on} x {1, 2, 4
 * queues}, and a fig8-class memcached point (mutilate client on a
 * second machine) on {modes} x {posted-intr off/on} with 2 queues.
 * Reports p99 latency and the per-request nested exit structure: the
 * ladder's claim is that posted interrupts drive the
 * external-interrupt and EOI-trap counts toward zero, and coalescing
 * divides the completion-interrupt count by the batch size.
 */

#include <cstdio>
#include <string>

#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "stats/table.h"
#include "system/bench_harness.h"
#include "system/cluster_spec.h"
#include "workloads/diskbench.h"
#include "workloads/remote_peer.h"

using namespace svtsim;

namespace {

/** One rung combination of the ladder. */
StackConfig
elisionConfig(VirtMode mode, bool posted, int queues)
{
    StackConfig cfg;
    cfg.mode = mode;
    cfg.postedInterrupts = posted;
    cfg.virtioQueues = queues;
    if (queues > 1) {
        // Multi-queue runs also coalesce completions (the knobs ride
        // together in the sweep, like a tuned production vhost).
        cfg.virtioCoalesceCount = 4;
        cfg.virtioCoalesceTimeout = usec(25);
    }
    return cfg;
}

std::string
diskName(VirtMode mode, bool posted, int queues)
{
    return std::string(virtModeName(mode)) + "-disk-pi" +
           (posted ? "1" : "0") + "-q" + std::to_string(queues);
}

std::string
netName(VirtMode mode, bool posted)
{
    return std::string(virtModeName(mode)) + "-net-pi" +
           (posted ? "1" : "0") + "-q2";
}

/** fig7-class disk point plus the per-request exit structure. */
void
runDisk(NestedSystem &sys, ScenarioResult &r, bool quick)
{
    RamDisk disk(sys.machine(), "ramdisk");
    VirtioBlkStack blk(sys.stack(), disk);
    IoPing ioping(sys.stack(), blk);
    Fio fio(sys.stack(), blk);

    IoPingResult lat = ioping.run(4096, false, quick ? 40 : 200);
    FioResult bw = fio.run(4096, false, 4, quick ? msec(20) : msec(60));
    r.record("mean_us", lat.meanUsec);
    r.record("p99_us", lat.p99Usec);
    r.record("bw_kbps", bw.kbPerSec);

    double reqs = static_cast<double>(blk.completedCount());
    const Machine &m = sys.machine();
    r.record("requests", reqs);
    r.record("extint_per_req",
             static_cast<double>(
                 m.counter("vmx.exit.EXTERNAL_INTERRUPT")) /
                 reqs);
    r.record("wrmsr_per_req",
             static_cast<double>(m.counter("l2.exit.MSR_WRITE")) / reqs);
    r.record("elided_posted_per_req",
             static_cast<double>(m.counter("l2.exit.elided.posted")) /
                 reqs);
    r.record("elided_eoi_per_req",
             static_cast<double>(m.counter("l2.exit.elided.eoi")) /
                 reqs);
}

/** fig8-class memcached point across a CrossLink. */
void
runNet(ClusterContext &ctx, ScenarioResult &r, VirtMode mode,
       bool posted, bool quick)
{
    Cluster b =
        ClusterSpec()
            .machine("server", mode, elisionConfig(mode, posted, 2))
            .machine("client", VirtMode::Native)
            .link("server", "client")
            .realize(ctx);

    VirtioNetStack net(b.stack("server"), b.port("server", "client"));
    MemcachedServer server(b.stack("server"), net);
    MutilateClient client(b.machine("client"),
                          b.port("client", "server"));

    const Ticks duration = quick ? msec(30) : msec(150);
    const double qps = 10000.0;
    MemcachedPoint pt;
    b.driver("server",
             [&](NestedSystem &) { server.serveUntil(duration); });
    b.driver("client",
             [&](NestedSystem &) { pt = client.runLoad(qps, duration); });

    b.run(ctx);
    r.record("p99_us", pt.p99Usec);
    r.record("avg_us", pt.avgUsec);
    r.record("achieved_qps", pt.achievedQps);
    double reqs = static_cast<double>(
        pt.completed > 0 ? pt.completed : 1);
    const Machine &m = b.machine("server");
    r.record("extint_per_req",
             static_cast<double>(
                 m.counter("vmx.exit.EXTERNAL_INTERRUPT")) /
                 reqs);
    r.record("wrmsr_per_req",
             static_cast<double>(m.counter("l2.exit.MSR_WRITE")) / reqs);
    r.record("elided_posted_per_req",
             static_cast<double>(m.counter("l2.exit.elided.posted")) /
                 reqs);
}

} // namespace

int
main(int argc, char **argv)
{
    const VirtMode modes[] = {VirtMode::Nested, VirtMode::SwSvt,
                              VirtMode::HwSvt};

    BenchHarness bench("exit_elision",
                       "exit-elision ladder: posted interrupts + "
                       "multi-queue virtio with coalescing");
    bool quick = false;
    bench.flag("--quick", quick, "CI sizes: fewer requests, shorter runs");
    for (VirtMode mode : modes) {
        for (bool posted : {false, true}) {
            for (int queues : {1, 2, 4}) {
                bench.add(diskName(mode, posted, queues), mode,
                          elisionConfig(mode, posted, queues),
                          [&quick](NestedSystem &sys,
                                   ScenarioResult &r) {
                              runDisk(sys, r, quick);
                          });
            }
            bench.addCluster(
                netName(mode, posted), mode,
                [mode, posted, &quick](ClusterContext &ctx,
                                       ScenarioResult &r) {
                    runNet(ctx, r, mode, posted, quick);
                });
        }
    }

    bench.onReport([&](const SweepResults &res) {
        Table t({"Scenario", "p99 (us)", "BW (KB/s)", "extint/req",
                 "wrmsr/req", "elided/req"});
        for (VirtMode mode : modes) {
            for (bool posted : {false, true}) {
                for (int queues : {1, 2, 4}) {
                    const auto &r =
                        res.at(diskName(mode, posted, queues));
                    t.addRow({r.name(),
                              Table::num(r.metric("p99_us"), 1),
                              Table::num(r.metric("bw_kbps"), 0),
                              Table::num(r.metric("extint_per_req"),
                                         2),
                              Table::num(r.metric("wrmsr_per_req"),
                                         2),
                              Table::num(
                                  r.metric("elided_posted_per_req"),
                                  2)});
                }
            }
        }
        std::printf("Exit-elision ladder, fig7-class disk "
                    "workloads\n\n%s\n",
                    t.render().c_str());

        Table n({"Scenario", "p99 (us)", "avg (us)", "qps",
                 "extint/req", "wrmsr/req"});
        for (VirtMode mode : modes) {
            for (bool posted : {false, true}) {
                const auto &r = res.at(netName(mode, posted));
                n.addRow({r.name(), Table::num(r.metric("p99_us"), 0),
                          Table::num(r.metric("avg_us"), 0),
                          Table::num(r.metric("achieved_qps"), 0),
                          Table::num(r.metric("extint_per_req"), 2),
                          Table::num(r.metric("wrmsr_per_req"), 2)});
            }
        }
        std::printf("Exit-elision ladder, fig8-class memcached "
                    "points (2 queues)\n\n%s\n",
                    n.render().c_str());

        // The acceptance line: how far rung 1 + rung 2 cut the
        // per-request nested exit structure on the baseline stack.
        const auto &off = res.at(diskName(VirtMode::Nested, false, 1));
        const auto &on = res.at(diskName(VirtMode::Nested, true, 4));
        std::printf(
            "Nested baseline, per request: %.2f extint + %.2f wrmsr "
            "exits (pi off, 1 queue) -> %.2f + %.2f (pi on, 4 queues "
            "coalesced)\n",
            off.metric("extint_per_req"), off.metric("wrmsr_per_req"),
            on.metric("extint_per_req"), on.metric("wrmsr_per_req"));
    });
    return bench.main(argc, argv);
}
