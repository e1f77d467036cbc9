/**
 * @file
 * Cluster-engine speed bench: wall-clock scaling of the conservative
 * parallel cluster engine on an N-machine memcached pool (N nested
 * servers, one bare-metal mutilate client fanned out over N
 * CrossLinks).
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
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/cost_model.h"
#include "io/virtio_net.h"
#include "sim/worker_pool.h"
#include "system/bench_harness.h"
#include "system/cluster_spec.h"
#include "workloads/remote_peer.h"

using namespace svtsim;

namespace {

struct RunConfig
{
    int machines = 8;      ///< Server machines (plus 1 client).
    int jobs = 0;          ///< Parallel workers (0 = hw threads).
    double qps = 8000;     ///< Offered load per server.
    Ticks duration = msec(200);
    Ticks latency = usec(25); ///< ToR-switch scale wire latency.
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
        spec.link("client", servers.back(), cfg.latency,
                  CostModel{}.linkBitsPerSec);
    }
    ClusterBuild b = spec.realize(cfg.seed);

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
        client.addFlow(b.port("client", s), cfg.qps);
    b.driver("client", [&client, &cfg](NestedSystem &) {
        client.run(cfg.duration);
    });

    const auto t0 = std::chrono::steady_clock::now();
    ClusterStats stats = b.run(jobs);
    RunOutcome out;
    out.wallSec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();

    Cluster &cluster = b.cluster();
    std::ostringstream fp;
    fp << "epochs=" << stats.epochs << " steps=" << stats.steps
       << " merged=" << stats.merged;
    for (int i = 0; i < cluster.size(); ++i)
        fp << " t" << i << "=" << cluster.machine(i).now();
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
runClusterSpeed(int argc, char **argv, const BenchOptions &options)
{
    RunConfig cfg;
    cfg.seed = options.seed;
    std::string outPath = "-";
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto num = [&](const char *prefix) {
            return std::strtod(arg + std::strlen(prefix), nullptr);
        };
        if (std::strncmp(arg, "--machines=", 11) == 0) {
            cfg.machines = static_cast<int>(num("--machines="));
        } else if (std::strncmp(arg, "--workers=", 10) == 0) {
            cfg.jobs = static_cast<int>(num("--workers="));
        } else if (std::strncmp(arg, "--qps=", 6) == 0) {
            cfg.qps = num("--qps=");
        } else if (std::strncmp(arg, "--duration-ms=", 14) == 0) {
            cfg.duration = msec(num("--duration-ms="));
        } else if (std::strncmp(arg, "--latency-us=", 13) == 0) {
            cfg.latency = usec(num("--latency-us="));
        } else if (std::strncmp(arg, "--out=", 6) == 0) {
            outPath = arg + 6;
        } else if (std::strcmp(arg, "--quick") == 0) {
            quick = true;
        } else {
            std::cerr
                << "cluster_speed: unknown argument '" << arg
                << "'\n"
                << "usage: cluster_speed [--machines=N] [--workers=N]"
                   " [--qps=Q] [--duration-ms=D] [--latency-us=L]"
                   " [--out=FILE] [--quick]\n";
            return 2;
        }
    }
    if (quick) {
        cfg.machines = std::min(cfg.machines, 4);
        cfg.duration = msec(40);
    }
    if (cfg.machines < 1 || cfg.latency <= 0 || cfg.qps <= 0) {
        std::cerr << "cluster_speed: bad configuration\n";
        return 2;
    }
    if (cfg.jobs <= 0)
        cfg.jobs = WorkerPool::defaultWorkers();

    const unsigned cores = std::thread::hardware_concurrency();

    std::printf("cluster_speed: %d servers + 1 client, %.0f qps each, "
                "%.0f ms, wire %.1f us (%u cores)\n",
                cfg.machines, cfg.qps, toUsec(cfg.duration) / 1000.0,
                toUsec(cfg.latency), cores);

    RunOutcome seq = runOnce(cfg, 1);
    RunOutcome par = runOnce(cfg, cfg.jobs);

    const bool identical = seq.fingerprint == par.fingerprint;
    if (!identical) {
        std::cerr << "cluster_speed: FINGERPRINT DIVERGENCE between "
                     "1 and "
                  << cfg.jobs << " workers\n  seq: " << seq.fingerprint
                  << "\n  par: " << par.fingerprint << "\n";
    }
    const double speedup =
        par.wallSec > 0 ? seq.wallSec / par.wallSec : 0;

    std::ostream *os = &std::cout;
    std::ofstream file;
    if (outPath != "-") {
        file.open(outPath);
        if (!file) {
            std::cerr << "cluster_speed: cannot open '" << outPath
                      << "'\n";
            return 1;
        }
        os = &file;
    }
    *os << "{\n"
        << "  \"bench\": \"cluster_speed\",\n"
        << "  \"quick\": " << (quick ? "true" : "false") << ",\n"
        << "  \"seed\": " << cfg.seed << ",\n"
        << "  \"machines\": " << cfg.machines << ",\n"
        << "  \"workers\": " << cfg.jobs << ",\n"
        << "  \"cores\": " << cores << ",\n"
        << "  \"qps\": " << cfg.qps << ",\n"
        << "  \"duration_ms\": " << toUsec(cfg.duration) / 1000.0
        << ",\n"
        << "  \"latency_us\": " << toUsec(cfg.latency) << ",\n"
        << "  \"seq_wall_s\": " << seq.wallSec << ",\n"
        << "  \"par_wall_s\": " << par.wallSec << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"identical\": " << (identical ? "true" : "false")
        << ",\n"
        << "  \"fingerprint\": \"" << seq.fingerprint << "\"\n}\n";

    std::printf("sequential %.3f s   %d workers %.3f s   speedup "
                "%.2fx   fingerprints %s\n",
                seq.wallSec, cfg.jobs, par.wallSec, speedup,
                identical ? "identical" : "DIVERGED");
    return identical ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchHarness bench("cluster_speed",
                       "wall-clock scaling of the parallel cluster "
                       "engine on an N-machine memcached pool, with "
                       "byte-identity enforced between worker counts");
    bench.onCustomMain(runClusterSpeed);
    return bench.main(argc, argv);
}
