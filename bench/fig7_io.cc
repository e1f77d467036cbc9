/**
 * @file
 * Regenerates Figure 7: speedup of SVt on the I/O subsystems.
 *
 * Paper results (baseline absolute, then SW SVt / HW SVt speedups):
 *   network latency   163 us      1.10x / 2.38x
 *   network bandwidth 9387 Mbps   1.00x / 1.12x
 *   disk randrd lat   126 us      1.30x / 2.18x
 *   disk randrd bw    87136 KB/s  1.55x / 2.31x
 *   disk randwr lat   179 us      1.05x / 2.26x
 *   disk randwr bw    55769 KB/s  1.18x / 2.60x
 *
 * The paper's HW SVt numbers come from an analytical scaling model;
 * ours come from full simulation of the SVt hardware, which clamps
 * network bandwidth at the physical line rate (the paper's model can
 * exceed it; see EXPERIMENTS.md).
 */

#include <cstdio>
#include <string>

#include "arch/cost_model.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "stats/table.h"
#include "system/bench_harness.h"
#include "system/cluster_spec.h"
#include "workloads/diskbench.h"
#include "workloads/netperf.h"

using namespace svtsim;

namespace {

/**
 * The netperf peer is a real second machine (the paper's bare-metal
 * netserver box), driven through a CrossLink on the parallel cluster
 * engine.
 */
void
runNet(ClusterContext &ctx, ScenarioResult &r, VirtMode mode,
       double rate_mult, bool full)
{
    ClusterBuild b =
        ClusterSpec()
            .machine("client", mode)
            .machine("peer", VirtMode::Native)
            .link("client", "peer", CostModel{}.wireLatency,
                  rate_mult * CostModel{}.linkBitsPerSec)
            .realize(ctx);

    VirtioNetStack net(b.stack("client"), b.port("client", "peer"));
    NetserverPeer peer(b.machine("peer"), b.port("peer", "client"));
    Netperf netperf(b.stack("client"), net);

    double lat_us = 0, bw_mbps = 0;
    b.driver("client", [&](NestedSystem &) {
        if (full)
            lat_us = netperf.runRr(1, 1, 60).meanUsec;
        bw_mbps = netperf
                      .runStream(16384, full ? msec(40) : msec(30))
                      .mbps;
    });

    b.run(ctx);
    if (full) {
        r.record("net_lat_us", lat_us);
        r.record("net_bw_mbps", bw_mbps);
    } else {
        r.record("cpu_bw_mbps", bw_mbps);
    }
    ctx.finish(b.cluster(), r);
}

void
runDisk(NestedSystem &sys, ScenarioResult &r)
{
    RamDisk disk(sys.machine(), "ramdisk");
    VirtioBlkStack blk(sys.stack(), disk);
    IoPing ioping(sys.stack(), blk);
    Fio fio(sys.stack(), blk);
    r.record("rd_lat_us", ioping.run(512, false, 60).meanUsec);
    r.record("wr_lat_us", ioping.run(512, true, 60).meanUsec);
    r.record("rd_bw_kbps", fio.run(4096, false, 4, msec(60)).kbPerSec);
    r.record("wr_bw_kbps", fio.run(4096, true, 4, msec(60)).kbPerSec);
}

} // namespace

int
main(int argc, char **argv)
{
    const VirtMode modes[] = {VirtMode::Nested, VirtMode::SwSvt,
                              VirtMode::HwSvt};

    BenchHarness bench(
        "fig7_io", "Figure 7: speedup of SVt on the I/O subsystems");
    for (VirtMode mode : modes) {
        bench.addCluster(
            std::string(virtModeName(mode)) + "-net", mode,
            [mode](ClusterContext &ctx, ScenarioResult &r) {
                runNet(ctx, r, mode, 1.0, true);
            });
        bench.add(std::string(virtModeName(mode)) + "-disk", mode,
                  runDisk);
    }
    // The paper's analytical-model methodology: the CPU-bound stream
    // bandwidth on a hypothetical 4x faster link (no line-rate clamp).
    for (VirtMode mode : {VirtMode::Nested, VirtMode::HwSvt}) {
        bench.addCluster(
            std::string(virtModeName(mode)) + "-cpu4x", mode,
            [mode](ClusterContext &ctx, ScenarioResult &r) {
                runNet(ctx, r, mode, 4.0, false);
            });
    }

    bench.onReport([&](const SweepResults &res) {
        auto net = [&](VirtMode m, const char *key) {
            return res.metric(std::string(virtModeName(m)) + "-net",
                              key);
        };
        auto disk = [&](VirtMode m, const char *key) {
            return res.metric(std::string(virtModeName(m)) + "-disk",
                              key);
        };

        Table t({"Benchmark", "Baseline", "SW SVt", "HW SVt",
                 "Paper base", "Paper SW", "Paper HW"});
        auto row = [&](const char *name, double b, double s, double h,
                       bool higher_better, double pb, double ps,
                       double ph) {
            double ss = higher_better ? s / b : b / s;
            double hs = higher_better ? h / b : b / h;
            t.addRow({name, Table::num(b, 1),
                      Table::num(ss, 2) + "x",
                      Table::num(hs, 2) + "x", Table::num(pb, 0),
                      Table::num(ps, 2) + "x",
                      Table::num(ph, 2) + "x"});
        };

        row("Network latency (us)",
            net(VirtMode::Nested, "net_lat_us"),
            net(VirtMode::SwSvt, "net_lat_us"),
            net(VirtMode::HwSvt, "net_lat_us"), false, 163, 1.10,
            2.38);
        row("Network bandwidth (Mbps)",
            net(VirtMode::Nested, "net_bw_mbps"),
            net(VirtMode::SwSvt, "net_bw_mbps"),
            net(VirtMode::HwSvt, "net_bw_mbps"), true, 9387, 1.00,
            1.12);
        row("Disk randrd latency (us)",
            disk(VirtMode::Nested, "rd_lat_us"),
            disk(VirtMode::SwSvt, "rd_lat_us"),
            disk(VirtMode::HwSvt, "rd_lat_us"), false, 126, 1.30,
            2.18);
        row("Disk randrd bandwidth (KB/s)",
            disk(VirtMode::Nested, "rd_bw_kbps"),
            disk(VirtMode::SwSvt, "rd_bw_kbps"),
            disk(VirtMode::HwSvt, "rd_bw_kbps"), true, 87136, 1.55,
            2.31);
        row("Disk randwr latency (us)",
            disk(VirtMode::Nested, "wr_lat_us"),
            disk(VirtMode::SwSvt, "wr_lat_us"),
            disk(VirtMode::HwSvt, "wr_lat_us"), false, 179, 1.05,
            2.26);
        row("Disk randwr bandwidth (KB/s)",
            disk(VirtMode::Nested, "wr_bw_kbps"),
            disk(VirtMode::SwSvt, "wr_bw_kbps"),
            disk(VirtMode::HwSvt, "wr_bw_kbps"), true, 55769, 1.18,
            2.60);

        std::printf("Figure 7: speedup of SVt on the I/O "
                    "subsystems\n\n%s\n",
                    t.render().c_str());

        // The paper's HW SVt network-bandwidth number (1.12x) comes
        // from an analytical model that ignores the physical line
        // rate (9387 x 1.12 > 10 GbE). Reproduce that methodology:
        // the CPU-bound speedup on a hypothetical faster link scales
        // the measured baseline.
        double base_bw = net(VirtMode::Nested, "net_bw_mbps");
        double model_ratio =
            res.metric("hw-svt-cpu4x", "cpu_bw_mbps") /
            res.metric("nested-baseline-cpu4x", "cpu_bw_mbps");
        std::printf(
            "Network bandwidth, paper's analytical HW SVt model "
            "(no line-rate clamp):\n"
            "  %.0f Mbps x %.2f = %.0f Mbps   (paper: 9387 x 1.12 "
            "= 10513 Mbps)\n",
            base_bw, model_ratio, base_bw * model_ratio);
    });
    return bench.main(argc, argv);
}
