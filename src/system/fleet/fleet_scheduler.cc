#include "system/fleet/fleet_scheduler.h"

#include <memory>
#include <string>
#include <vector>

#include "io/cross_link.h"
#include "io/ramdisk.h"
#include "io/virtio_blk.h"
#include "io/virtio_net.h"
#include "sim/log.h"
#include "workloads/remote_peer.h"
#include "workloads/tpcc.h"
#include "workloads/video.h"

namespace svtsim {

namespace {

/** Scale the CPU-bound cost-model fields of a sibling-sharing slot by
 *  1 + FleetSpec::smtContention. */
void
applySmtContention(CostModel &costs)
{
    const double f = 1.0 + FleetSpec::smtContention;
    auto scale = [f](Ticks &t) {
        t = static_cast<Ticks>(t * f);
    };
    // Execution-slot-bound work slows when the sibling computes;
    // wire latency, link bandwidth and wake latencies are physical
    // constants of the fabric and the sleep machinery.
    scale(costs.cpuidExec);
    scale(costs.regOp);
    scale(costs.memAccess);
    scale(costs.llcAccess);
    scale(costs.dramAccess);
    scale(costs.msrNative);
    scale(costs.handlerDispatch);
    scale(costs.nestedExitCheck);
    scale(costs.nestedStateMachine);
    scale(costs.lazySyncValue);
    scale(costs.emulVmcsAccess);
    scale(costs.emulCpuid);
    scale(costs.emulMsr);
    scale(costs.mmioDecode);
    scale(costs.l1HandlerLogic);
    scale(costs.tcpStackPerSegment);
    scale(costs.vhostPerBuffer);
    scale(costs.blockLayerPerRequest);
    scale(costs.blockWriteSurcharge);
    scale(costs.guestBlockSyscall);
    scale(costs.l1IoThreadWake);
    scale(costs.netCopyPerByte);
    scale(costs.diskCopyPerByte);
}

} // namespace

FleetScheduler::FleetScheduler(const FleetSpec &spec,
                               std::uint64_t seed)
    : spec_(spec), seed_(seed), placement_(placeFleet(spec, seed))
{}

std::string
FleetScheduler::slotMachineName(int i) const
{
    const PlacementSlot &slot = placement_.slots[i];
    return spec_.tenants[slot.tenant].name + "-v" +
           std::to_string(slot.vcpu);
}

FleetOutcome
FleetScheduler::run(ClusterContext &ctx, ScenarioResult &result)
{
    return execute(&ctx, &result, 0);
}

FleetOutcome
FleetScheduler::run(int clusterJobs)
{
    return execute(nullptr, nullptr, clusterJobs);
}

namespace {

/** Per-slot workload state kept alive across Cluster::run. */
struct SlotRuntime
{
    // memcached serving slot
    std::unique_ptr<VirtioNetStack> net;
    std::unique_ptr<MemcachedServer> server;
    std::uint64_t served = 0;
    /** Loadgen flow index serving this slot (memcached only). */
    int flowIdx = -1;

    // tpcc slot (self-contained client+server machine, as fig9)
    std::unique_ptr<CrossLink> link;
    std::unique_ptr<RamDisk> disk;
    std::unique_ptr<VirtioBlkStack> blk;
    std::unique_ptr<Tpcc> tpcc;
    TpccResult tpccResult;

    // video slot
    std::unique_ptr<VideoPlayback> video;
    VideoResult videoResult;
};

/** One memcached tenant's bare-metal loadgen machine. */
struct LoadgenRuntime
{
    std::string machineName;
    std::unique_ptr<MutilateClient> gen;
};

} // namespace

FleetOutcome
FleetScheduler::execute(ClusterContext *ctx, ScenarioResult *result,
                        int jobs)
{
    const VirtMode slotMode = spec_.policy == PlacementPolicy::SvtPair
                                  ? FleetSpec::pairedMode
                                  : VirtMode::Nested;
    // One single-core machine per slot; HW SVt needs the third
    // hardware context per core (paperTopology(HwSvt) likewise).
    const MachineTopology slotTopo{
        1, 1, slotMode == VirtMode::HwSvt ? 3 : 2};
    const int ntenants = static_cast<int>(spec_.tenants.size());
    const int nslots = static_cast<int>(placement_.slots.size());

    // ---- Declare the cluster -------------------------------------
    ClusterSpec cs;
    std::vector<std::string> slotNames(nslots);
    for (int i = 0; i < nslots; ++i) {
        slotNames[i] = slotMachineName(i);
        StackConfig config;
        config.mode = slotMode;
        cs.machine(slotNames[i], slotTopo, config);
    }
    std::vector<LoadgenRuntime> loadgens(ntenants);
    for (int t = 0; t < ntenants; ++t) {
        if (spec_.tenants[t].workload != TenantWorkload::Memcached)
            continue;
        loadgens[t].machineName = spec_.tenants[t].name + "-lg";
        StackConfig config;
        config.mode = VirtMode::Native;
        cs.machine(loadgens[t].machineName, MachineTopology{1, 1, 2},
                   config);
        for (int i = 0; i < nslots; ++i)
            if (placement_.slots[i].tenant == t)
                cs.link(loadgens[t].machineName, slotNames[i],
                        FleetSpec::linkLatency,
                        CostModel{}.linkBitsPerSec);
    }

    Cluster cluster = cs.realize(seed_);

    // ---- Policy effects on slot machines -------------------------
    for (int i = 0; i < nslots; ++i)
        if (placement_.slots[i].sharedSibling)
            applySmtContention(cluster.machine(slotNames[i]).costs());

    // ---- Wire workloads and drivers ------------------------------
    std::vector<std::unique_ptr<SlotRuntime>> runtimes;
    runtimes.reserve(nslots);
    for (int i = 0; i < nslots; ++i) {
        const PlacementSlot &slot = placement_.slots[i];
        const TenantSpec &tenant = spec_.tenants[slot.tenant];
        const std::string &name = slotNames[i];
        const double cpuScale =
            slot.sharedSibling ? 1.0 + FleetSpec::smtContention : 1.0;
        auto rtp = std::make_unique<SlotRuntime>();
        SlotRuntime *rt = rtp.get();
        Machine &m = cluster.machine(name);
        const Ticks duration = tenant.duration;
        switch (tenant.workload) {
        case TenantWorkload::Memcached: {
            rt->net = std::make_unique<VirtioNetStack>(
                cluster.stack(name),
                cluster.port(name, loadgens[slot.tenant].machineName));
            rt->server = std::make_unique<MemcachedServer>(
                cluster.stack(name), *rt->net,
                42 + static_cast<std::uint64_t>(i));
            cluster.driver(name, [rt, duration](NestedSystem &) {
                rt->served = rt->server->serveUntil(duration);
            });
            break;
        }
        case TenantWorkload::Tpcc: {
            rt->link = std::make_unique<CrossLink>(
                m, m.costs().wireLatency, m.costs().linkBitsPerSec);
            rt->net = std::make_unique<VirtioNetStack>(
                cluster.stack(name), rt->link->port(0));
            rt->disk = std::make_unique<RamDisk>(m, "pgdata");
            rt->blk = std::make_unique<VirtioBlkStack>(
                cluster.stack(name), *rt->disk);
            rt->tpcc = std::make_unique<Tpcc>(
                cluster.stack(name), *rt->net, rt->link->port(1), *rt->blk,
                7 + static_cast<std::uint64_t>(i), cpuScale);
            cluster.driver(name, [rt, duration](NestedSystem &) {
                rt->tpccResult = rt->tpcc->run(duration);
            });
            break;
        }
        case TenantWorkload::Video: {
            rt->disk = std::make_unique<RamDisk>(m, "media");
            rt->blk = std::make_unique<VirtioBlkStack>(
                cluster.stack(name), *rt->disk);
            rt->video = std::make_unique<VideoPlayback>(
                cluster.stack(name), *rt->blk,
                99 + static_cast<std::uint64_t>(i), cpuScale);
            const double fps = tenant.fps;
            cluster.driver(name, [rt, fps, duration](NestedSystem &) {
                rt->videoResult = rt->video->run(fps, duration);
            });
            break;
        }
        }
        runtimes.push_back(std::move(rtp));
    }
    for (int t = 0; t < ntenants; ++t) {
        if (spec_.tenants[t].workload != TenantWorkload::Memcached)
            continue;
        LoadgenRuntime &lg = loadgens[t];
        lg.gen = std::make_unique<MutilateClient>(
            cluster.machine(lg.machineName),
            seed_ + 1000 + static_cast<std::uint64_t>(t) * 100);
        for (int i = 0; i < nslots; ++i)
            if (placement_.slots[i].tenant == t)
                runtimes[i]->flowIdx = lg.gen->addFlow(
                    cluster.port(lg.machineName, slotNames[i]),
                    spec_.tenants[t].qpsPerVcpu);
        MutilateClient *gen = lg.gen.get();
        const Ticks duration = spec_.tenants[t].duration;
        cluster.driver(lg.machineName, [gen, duration](NestedSystem &) {
            gen->run(duration);
        });
    }

    // ---- Run ------------------------------------------------------
    const ClusterStats stats =
        ctx ? cluster.run(*ctx) : cluster.run(jobs);

    // ---- Roll up --------------------------------------------------
    FleetOutcome out;
    Percentiles fleetLat;
    for (int t = 0; t < ntenants; ++t) {
        const TenantSpec &tenant = spec_.tenants[t];
        TenantOutcome to;
        to.name = tenant.name;
        to.workload = tenantWorkloadName(tenant.workload);
        to.vcpus = tenant.vcpus;
        to.sloTarget = tenant.sloTarget;

        Percentiles lat;
        double interference = 0, meanTxnSum = 0;
        int slots = 0;
        for (int i = 0; i < nslots; ++i) {
            if (placement_.slots[i].tenant != t)
                continue;
            const SlotRuntime &rt = *runtimes[i];
            Machine &m = cluster.machine(slotNames[i]);
            interference +=
                exitOverheadFraction(m.snapshotMetrics(), m.now());
            ++slots;
            switch (tenant.workload) {
            case TenantWorkload::Memcached:
                lat.merge(loadgens[t].gen->flow(rt.flowIdx).latency);
                to.completed +=
                    loadgens[t].gen->flow(rt.flowIdx).completed;
                break;
            case TenantWorkload::Tpcc:
                to.tpm += rt.tpccResult.tpm;
                meanTxnSum += rt.tpccResult.meanTxnMsec;
                to.completed += rt.tpccResult.transactions;
                break;
            case TenantWorkload::Video:
                to.frames += rt.videoResult.totalFrames;
                to.droppedFrames += rt.videoResult.droppedFrames;
                to.completed += static_cast<std::uint64_t>(
                    rt.videoResult.totalFrames);
                break;
            }
        }
        to.interference = slots ? interference / slots : 0;
        switch (tenant.workload) {
        case TenantWorkload::Memcached:
            to.offeredQps = tenant.qpsPerVcpu * tenant.vcpus;
            to.achievedQps = static_cast<double>(to.completed) /
                             toSec(tenant.duration);
            if (lat.count()) {
                to.meanUsec = lat.mean();
                to.p99Usec = lat.p99();
            }
            to.sloValue = to.p99Usec;
            to.sloMet = lat.count() > 0 && to.sloValue <= to.sloTarget;
            fleetLat.merge(lat);
            break;
        case TenantWorkload::Tpcc:
            to.meanTxnMsec = slots ? meanTxnSum / slots : 0;
            to.sloValue = to.meanTxnMsec;
            to.sloMet = to.completed > 0 && to.sloValue <= to.sloTarget;
            break;
        case TenantWorkload::Video:
            to.dropFraction =
                to.frames ? static_cast<double>(to.droppedFrames) /
                                to.frames
                          : 0;
            to.sloValue = to.dropFraction;
            to.sloMet = to.frames > 0 && to.sloValue <= to.sloTarget;
            break;
        }
        out.tenants.push_back(std::move(to));
    }
    out.fleetP99Usec = fleetLat.count() ? fleetLat.p99() : 0;
    finalizeFleetOutcome(out);

    if (result) {
        for (const TenantOutcome &to : out.tenants) {
            result->record(to.name + "_slo_value", to.sloValue);
            result->record(to.name + "_slo_met", to.sloMet ? 1 : 0);
            result->record(to.name + "_interference",
                           to.interference);
            if (to.workload == std::string("memcached")) {
                result->record(to.name + "_p99_usec", to.p99Usec);
                result->record(to.name + "_achieved_qps",
                               to.achievedQps);
            } else if (to.workload == std::string("tpcc")) {
                result->record(to.name + "_tpm", to.tpm);
            } else {
                result->record(to.name + "_dropped_frames",
                               to.droppedFrames);
            }
        }
        result->record("fleet_p99_usec", out.fleetP99Usec);
        result->record("fleet_qps_under_sla", out.qpsUnderSla);
        result->record("fleet_offered_qps", out.offeredQps);
        result->record("fleet_tenants_met", out.tenantsMet);
        result->record("fleet_sla_fraction", out.slaFraction);
        result->record("fleet_mean_interference",
                       out.meanInterference);
        result->record("cluster_epochs",
                       static_cast<double>(stats.epochs));
        result->record("cluster_steps",
                       static_cast<double>(stats.steps));
        result->record("cluster_merged",
                       static_cast<double>(stats.merged));
    }
    return out;
}

} // namespace svtsim
