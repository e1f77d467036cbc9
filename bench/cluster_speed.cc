/**
 * @file
 * Cluster-engine speed bench: wall-clock scaling of the conservative
 * parallel cluster engine on an 8-machine memcached pool (8 nested
 * servers, one bare-metal mutilate client fanned out over 8
 * CrossLinks; 4 with --quick).
 *
 * The same scenario runs twice — `--cluster-jobs`-style parallel and
 * with the sequential oracle (1 worker) — and the bench enforces that
 * both produce the identical simulation fingerprint (per-flow
 * latencies and counts, per-machine final clocks, epoch statistics)
 * before reporting the wall-clock ratio. Wall time is host-dependent,
 * so the JSON records the host core count and CI applies a core-aware
 * floor (no speedup is physically possible on a 1-core runner).
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/cost_model.h"
#include "io/virtio_net.h"
#include "system/bench_harness.h"
#include "system/cluster_spec.h"
#include "system/epoch_crew.h"
#include "workloads/remote_peer.h"

using namespace svtsim;

namespace {

/** Offered load per server. */
constexpr double kQps = 8000;
/** ToR-switch scale wire latency. */
constexpr Ticks kLatency = usec(25);

struct RunConfig
{
    int machines = 8; ///< Server machines (plus 1 client).
    Ticks duration = msec(200);
    std::uint64_t seed = 1;
};

struct RunOutcome
{
    std::string fingerprint;
    double wallSec = 0;
};

/**
 * Build the pool, run it with @p jobs workers, and reduce the whole
 * simulation to a deterministic fingerprint string. Every call
 * constructs a fresh Cluster from the same seed, so any two calls
 * must produce byte-identical fingerprints regardless of @p jobs.
 */
RunOutcome
runOnce(const RunConfig &cfg, int jobs)
{
    ClusterSpec spec;
    spec.machine("client", VirtMode::Native);
    std::vector<std::string> servers;
    for (int i = 0; i < cfg.machines; ++i) {
        servers.push_back("server" + std::to_string(i));
        spec.machine(servers.back(), VirtMode::Nested);
        spec.link("client", servers.back(), kLatency,
                  CostModel{}.linkBitsPerSec);
    }
    Cluster b = spec.realize(cfg.seed);

    // Server side: one nested virtio-net stack + serving loop each.
    std::vector<std::unique_ptr<VirtioNetStack>> nets;
    std::vector<std::unique_ptr<MemcachedServer>> mcs;
    std::vector<std::uint64_t> served(servers.size(), 0);
    for (std::size_t i = 0; i < servers.size(); ++i) {
        nets.push_back(std::make_unique<VirtioNetStack>(
            b.stack(servers[i]), b.port(servers[i], "client")));
        mcs.push_back(std::make_unique<MemcachedServer>(
            b.stack(servers[i]), *nets.back(),
            42 + static_cast<std::uint64_t>(i)));
        auto *mc = mcs.back().get();
        auto *out = &served[i];
        b.driver(servers[i], [mc, out, &cfg](NestedSystem &) {
            *out = mc->serveUntil(cfg.duration);
        });
    }

    // Client side: N independent open-loop ETC flows, one per link,
    // all event-driven on the single bare-metal client machine.
    MutilateClient client(b.machine("client"), cfg.seed + 1000);
    for (const std::string &s : servers)
        client.addFlow(b.port("client", s), kQps);
    b.driver("client", [&client, &cfg](NestedSystem &) {
        client.run(cfg.duration);
    });

    const auto t0 = std::chrono::steady_clock::now();
    ClusterStats stats = b.run(jobs);
    RunOutcome out;
    out.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    std::ostringstream fp;
    fp << "epochs=" << stats.epochs << " steps=" << stats.steps
       << " merged=" << stats.merged;
    for (int i = 0; i < b.size(); ++i)
        fp << " t" << i << "=" << b.machine(i).now();
    for (int i = 0; i < client.flowCount(); ++i) {
        const MutilateClient::FlowStats &flow = client.flow(i);
        char buf[96];
        std::snprintf(buf, sizeof buf, " f%d=%llu/%llu/%.17g/%.17g", i,
                      static_cast<unsigned long long>(flow.completed),
                      static_cast<unsigned long long>(served[i]),
                      flow.latency.mean(), flow.latency.p99());
        fp << buf;
    }
    out.fingerprint = fp.str();
    return out;
}

int
runClusterSpeed(const std::string &outPath, bool quick,
                std::uint64_t workers, std::uint64_t seed)
{
    RunConfig cfg;
    cfg.seed = seed;
    if (quick) {
        cfg.machines = 4;
        cfg.duration = msec(40);
    }
    const int jobs = workers == 0 ? EpochCrew::hardwareThreads()
                                  : static_cast<int>(workers);

    const unsigned cores = std::thread::hardware_concurrency();

    std::printf("cluster_speed: %d servers + 1 client, %.0f qps each, "
                "%.0f ms, wire %.1f us (%u cores)\n",
                cfg.machines, kQps, toUsec(cfg.duration) / 1000.0,
                toUsec(kLatency), cores);

    RunOutcome seq = runOnce(cfg, 1);
    RunOutcome par = runOnce(cfg, jobs);

    const bool identical = seq.fingerprint == par.fingerprint;
    if (!identical) {
        std::cerr << "cluster_speed: FINGERPRINT DIVERGENCE between "
                     "1 and "
                  << jobs << " workers\n  seq: " << seq.fingerprint
                  << "\n  par: " << par.fingerprint << "\n";
    }
    const double speedup =
        par.wallSec > 0 ? seq.wallSec / par.wallSec : 0;

    if (!writeOutput("cluster_speed", outPath, [&](std::ostream &os) {
            os << "{\n"
               << "  \"bench\": \"cluster_speed\",\n"
               << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
               << "  \"seed\": " << cfg.seed << ",\n"
               << "  \"machines\": " << cfg.machines << ",\n"
               << "  \"workers\": " << jobs << ",\n"
               << "  \"cores\": " << cores << ",\n"
               << "  \"qps\": " << kQps << ",\n"
               << "  \"duration_ms\": " << toUsec(cfg.duration) / 1000.0
               << ",\n"
               << "  \"latency_us\": " << toUsec(kLatency) << ",\n"
               << "  \"seq_wall_s\": " << seq.wallSec << ",\n"
               << "  \"par_wall_s\": " << par.wallSec << ",\n"
               << "  \"speedup\": " << speedup << ",\n"
               << "  \"identical\": " << (identical ? "true" : "false")
               << ",\n"
               << "  \"fingerprint\": \"" << seq.fingerprint << "\"\n}\n";
        }))
        return 1;

    std::printf("sequential %.3f s   %d workers %.3f s   speedup "
                "%.2fx   fingerprints %s\n",
                seq.wallSec, jobs, par.wallSec, speedup,
                identical ? "identical" : "DIVERGED");
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchHarness bench("cluster_speed",
                       "wall-clock scaling of the parallel cluster "
                       "engine on an 8-machine memcached pool, with "
                       "byte-identity enforced between worker counts");
    std::string outPath = "-";
    bool quick = false;
    std::uint64_t workers = 0;
    bench.flag("--out=FILE", outPath,
               "write the record to FILE (default \"-\" = stdout)");
    bench.flag("--quick", quick, "CI sizes: 4 servers, 40 ms");
    bench.flag("--workers=N", workers,
               "parallel run's threads (0 = one per hardware thread, "
               "the default)",
               BenchHarness::kMaxThreads);
    bench.onCustomMain([&](const BenchOptions &options) {
        return runClusterSpeed(outPath, quick, workers, options.seed);
    });
    return bench.main(argc, argv);
}
