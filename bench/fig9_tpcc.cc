/**
 * @file
 * Regenerates Figure 9: TPC-C (sysbench-tpcc over a PostgreSQL-like
 * server) transaction throughput, baseline vs SW SVt.
 *
 * Paper: baseline 6.37 Ktpm, SVt speedup 1.18x.
 */

#include <cstdio>

#include "io/cross_link.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "stats/table.h"
#include "system/bench_harness.h"
#include "workloads/tpcc.h"

using namespace svtsim;

namespace {

void
runTpcc(NestedSystem &sys, ScenarioResult &r)
{
    CrossLink link(sys.machine(), sys.machine().costs().wireLatency,
                   sys.machine().costs().linkBitsPerSec);
    VirtioNetStack net(sys.stack(), link.port(0));
    RamDisk disk(sys.machine(), "pgdata");
    VirtioBlkStack blk(sys.stack(), disk);
    Tpcc tpcc(sys.stack(), net, link.port(1), blk);
    TpccResult t = tpcc.run(sec(2));
    r.record("tpm", t.tpm);
    r.record("mean_txn_msec", t.meanTxnMsec);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchHarness bench("fig9_tpcc",
                       "Figure 9: TPC-C + PostgreSQL throughput");
    bench.add("baseline", VirtMode::Nested, runTpcc);
    bench.add("sw-svt", VirtMode::SwSvt, runTpcc);
    bench.add("hw-svt", VirtMode::HwSvt, runTpcc);

    bench.onReport([](const SweepResults &res) {
        double base_tpm = res.metric("baseline", "tpm");
        Table t({"System", "Ktpm", "Mean txn (ms)", "Speedup",
                 "Paper"});
        t.addRow({"Baseline", Table::num(base_tpm / 1000.0, 2),
                  Table::num(res.metric("baseline", "mean_txn_msec"),
                             2),
                  "-", "6.37 Ktpm"});
        t.addRow({"SW SVt",
                  Table::num(res.metric("sw-svt", "tpm") / 1000.0, 2),
                  Table::num(res.metric("sw-svt", "mean_txn_msec"),
                             2),
                  Table::num(res.metric("sw-svt", "tpm") / base_tpm,
                             2) +
                      "x",
                  "1.18x"});
        t.addRow({"HW SVt",
                  Table::num(res.metric("hw-svt", "tpm") / 1000.0, 2),
                  Table::num(res.metric("hw-svt", "mean_txn_msec"),
                             2),
                  Table::num(res.metric("hw-svt", "tpm") / base_tpm,
                             2) +
                      "x",
                  "(modeled)"});
        std::printf("Figure 9: TPC-C + PostgreSQL throughput\n\n%s\n",
                    t.render().c_str());
    });
    return bench.main(argc, argv);
}
