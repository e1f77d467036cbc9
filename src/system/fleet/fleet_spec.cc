#include "system/fleet/fleet_spec.h"

#include <climits>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "sim/log.h"
#include "sim/random.h"

namespace svtsim {

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
    case PlacementPolicy::SvtPair:
        return "svt-pair";
    case PlacementPolicy::SiblingShare:
        return "sibling-share";
    case PlacementPolicy::Isolate:
        return "isolate";
    }
    return "?";
}

const char *
tenantWorkloadName(TenantWorkload workload)
{
    switch (workload) {
    case TenantWorkload::Memcached:
        return "memcached";
    case TenantWorkload::Tpcc:
        return "tpcc";
    case TenantWorkload::Video:
        return "video";
    }
    return "?";
}

TenantSpec
memcachedTenant(std::string name, int vcpus, double qps_per_vcpu,
                double slo_p99_usec)
{
    TenantSpec t;
    t.name = std::move(name);
    t.workload = TenantWorkload::Memcached;
    t.vcpus = vcpus;
    t.qpsPerVcpu = qps_per_vcpu;
    t.sloTarget = slo_p99_usec;
    return t;
}

TenantSpec
tpccTenant(std::string name, int vcpus, double slo_mean_txn_msec)
{
    TenantSpec t;
    t.name = std::move(name);
    t.workload = TenantWorkload::Tpcc;
    t.vcpus = vcpus;
    t.sloTarget = slo_mean_txn_msec;
    return t;
}

TenantSpec
videoTenant(std::string name, int vcpus, double fps,
            double slo_drop_fraction)
{
    TenantSpec t;
    t.name = std::move(name);
    t.workload = TenantWorkload::Video;
    t.vcpus = vcpus;
    t.fps = fps;
    t.sloTarget = slo_drop_fraction;
    return t;
}

int
policyCapacity(const MachineTopology &topo, PlacementPolicy policy)
{
    switch (policy) {
    case PlacementPolicy::SvtPair:
    case PlacementPolicy::Isolate:
        return topo.totalCores();
    case PlacementPolicy::SiblingShare:
        return topo.totalCores() * topo.threadsPerCore;
    }
    return 0;
}

int
totalVcpuDemand(const FleetSpec &spec)
{
    long long demand = 0; // wide, so that no int sum overflows
    for (const TenantSpec &t : spec.tenants)
        demand += t.vcpus;
    if (!std::in_range<int>(demand))
        fatal("FleetSpec: a total demand of %lld vCPUs does not fit an "
              "int", demand);
    return static_cast<int>(demand);
}

void
validateTenantSpec(const TenantSpec &tenant)
{
    if (tenant.name.empty())
        fatal("TenantSpec: tenant with an empty name; every tenant "
              "needs a unique non-empty name (it keys per-tenant "
              "metrics and SLO reporting)");
    const char *name = tenant.name.c_str();
    if (*tenantWorkloadName(tenant.workload) == '?') // not an enumerator
        fatal("TenantSpec '%s': workload %d is not a TenantWorkload",
              name, static_cast<int>(tenant.workload));
    if (tenant.vcpus < 1)
        fatal("TenantSpec '%s': demands %d vCPUs; a tenant must "
              "demand at least one",
              name, tenant.vcpus);
    // Each double must be finite and > 0 (a NaN fails every
    // comparison, so test the accepted range, not the rejected one).
    auto positive = [](double v) { return std::isfinite(v) && v > 0; };
    if (!positive(tenant.sloTarget))
        fatal("TenantSpec '%s': SLO target %g must be finite and > 0 "
              "(%s tenants express it as %s)",
              name, tenant.sloTarget,
              tenantWorkloadName(tenant.workload),
              tenant.workload == TenantWorkload::Memcached
                  ? "p99 latency in usec"
                  : (tenant.workload == TenantWorkload::Tpcc
                         ? "mean transaction latency in msec"
                         : "a dropped-frame fraction"));
    // The workloads add the duration to the run's start (mutilate
    // also a drain margin), so one simulated day keeps every deadline
    // far inside the Ticks range.
    constexpr Ticks maxDuration = sec(24 * 3600);
    if (tenant.duration <= 0 || tenant.duration > maxDuration)
        fatal("TenantSpec '%s': duration %lld ticks must be > 0 and "
              "<= %lld (one simulated day)",
              name, static_cast<long long>(tenant.duration),
              static_cast<long long>(maxDuration));
    // The workloads turn a rate into a period of 1e12 / rate ticks
    // (mutilate's mean request gap, the video frame period). At least
    // one tick, and at most a second, keeps the period and what the
    // workloads derive from it (the demuxer's 32-bit read length)
    // within their types.
    auto rate = [](double v) { return v >= 1 && v <= 1e12; };
    if (tenant.workload == TenantWorkload::Memcached &&
        !rate(tenant.qpsPerVcpu))
        fatal("TenantSpec '%s': memcached tenants need an offered "
              "load; qpsPerVcpu %g must be >= 1 and <= 1e12 (a mean "
              "request gap of one second to one tick)",
              name, tenant.qpsPerVcpu);
    if (tenant.workload == TenantWorkload::Video &&
        !(rate(tenant.fps) && toSec(tenant.duration) * tenant.fps <= INT_MAX))
        fatal("TenantSpec '%s': video tenants need a frame rate; fps "
              "%g must be >= 1 and <= 1e12 (a frame period of one "
              "second to one tick), and the %g s run must count at "
              "most INT_MAX frames",
              name, tenant.fps, toSec(tenant.duration));
}

void
validateFleetSpec(const FleetSpec &spec)
{
    validateTopology(spec.topology);
    if (spec.tenants.empty())
        fatal("FleetSpec: empty tenant set; a fleet with nothing to "
              "place is almost certainly a harness bug — declare at "
              "least one TenantSpec");
    std::unordered_set<std::string> names;
    for (const TenantSpec &t : spec.tenants) {
        validateTenantSpec(t);
        if (!names.insert(t.name).second)
            fatal("FleetSpec: tenant '%s' declared twice; tenant "
                  "names must be unique (they key per-tenant metrics "
                  "and SLO reporting)",
                  t.name.c_str());
    }
    static_assert(isSvtMode(FleetSpec::pairedMode));
    if (spec.policy == PlacementPolicy::SvtPair &&
        spec.topology.threadsPerCore % 2 != 0)
        fatal("FleetSpec: policy svt-pair pairs each vCPU with an "
              "SVt thread on its SMT sibling, which needs an even "
              "number of SMT ways per core; this topology has %d. "
              "Use threadsPerCore=2 (the Table 4 testbed) or a "
              "non-paired policy (sibling-share, isolate)",
              spec.topology.threadsPerCore);
    const int demand = totalVcpuDemand(spec);
    const int capacity = policyCapacity(spec.topology, spec.policy);
    if (demand > capacity)
        fatal("FleetSpec: tenants demand %d vCPUs but policy %s on "
              "%d sockets x %d cores x %d-way SMT offers only %d "
              "slots; shrink the tenant set%s",
              demand, placementPolicyName(spec.policy),
              spec.topology.numaNodes, spec.topology.coresPerNode,
              spec.topology.threadsPerCore, capacity,
              spec.policy == PlacementPolicy::SiblingShare
                  ? ""
                  : " or switch to sibling-share (threadsPerCore "
                    "vCPUs per core)");
}

FleetPlacement
placeFleet(const FleetSpec &spec, std::uint64_t seed)
{
    validateFleetSpec(spec);

    // Demand list, round-robin across tenants so consecutive slots
    // belong to different tenants and sibling-share genuinely
    // co-schedules cross-tenant pairs.
    struct Demand
    {
        int tenant;
        int vcpu;
    };
    std::vector<Demand> demand;
    std::vector<int> next(spec.tenants.size(), 0);
    for (bool placed = true; placed;) {
        placed = false;
        for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
            if (next[t] < spec.tenants[t].vcpus) {
                demand.push_back(
                    {static_cast<int>(t), next[t]++});
                placed = true;
            }
        }
    }

    // Seed-shuffled core order (Fisher-Yates over Rng): the placement
    // is a pure function of (spec, seed).
    std::vector<int> cores(spec.topology.totalCores());
    for (std::size_t i = 0; i < cores.size(); ++i)
        cores[i] = static_cast<int>(i);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0xf1ee7u);
    for (std::size_t i = cores.size(); i > 1; --i) {
        const std::size_t j = rng.below(i);
        std::swap(cores[i - 1], cores[j]);
    }

    FleetPlacement placement;
    placement.slots.reserve(demand.size());
    const int perCore = spec.policy == PlacementPolicy::SiblingShare
                            ? spec.topology.threadsPerCore
                            : 1;
    for (std::size_t i = 0; i < demand.size(); ++i) {
        const int core = cores[i / perCore];
        PlacementSlot slot;
        slot.tenant = demand[i].tenant;
        slot.vcpu = demand[i].vcpu;
        slot.socket = core / spec.topology.coresPerNode;
        slot.core = core;
        slot.thread = static_cast<int>(i % perCore);
        placement.slots.push_back(slot);
    }
    // Mark sibling sharing after the fact (the last slot on a core
    // may have no sibling when demand doesn't fill the core).
    if (perCore > 1) {
        for (std::size_t i = 0; i < placement.slots.size(); ++i) {
            for (std::size_t j = i + 1;
                 j < placement.slots.size() &&
                 placement.slots[j].core == placement.slots[i].core;
                 ++j) {
                placement.slots[i].sharedSibling = true;
                placement.slots[j].sharedSibling = true;
                placement.slots[i].siblingTenant =
                    placement.slots[j].tenant;
                placement.slots[j].siblingTenant =
                    placement.slots[i].tenant;
            }
        }
    }
    return placement;
}

} // namespace svtsim
