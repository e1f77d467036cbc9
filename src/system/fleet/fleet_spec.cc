#include "system/fleet/fleet_spec.h"

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
policyCapacity(const TopologySpec &topo, PlacementPolicy policy)
{
    switch (policy) {
    case PlacementPolicy::SvtPair:
    case PlacementPolicy::Isolate:
        return topo.totalCores();
    case PlacementPolicy::SiblingShare:
        return topo.totalCores() * topo.smtWays;
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
validateTopologySpec(const TopologySpec &topo)
{
    // At most 1024 each, so every slot count (up to 2^30 hardware
    // threads) fits an int before any product is formed.
    auto bad = [](int n) { return n < 1 || n > 1024; };
    if (bad(topo.sockets) || bad(topo.coresPerSocket) || bad(topo.smtWays))
        fatal("TopologySpec: %d sockets x %d cores x %d-way SMT is "
              "not a machine; every dimension must be >= 1 and <= 1024",
              topo.sockets, topo.coresPerSocket, topo.smtWays);
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
    if (tenant.sloTarget <= 0)
        fatal("TenantSpec '%s': SLO target %g must be > 0 (%s "
              "tenants express it as %s)",
              name, tenant.sloTarget,
              tenantWorkloadName(tenant.workload),
              tenant.workload == TenantWorkload::Memcached
                  ? "p99 latency in usec"
                  : (tenant.workload == TenantWorkload::Tpcc
                         ? "mean transaction latency in msec"
                         : "a dropped-frame fraction"));
    if (tenant.duration <= 0)
        fatal("TenantSpec '%s': duration %lld ticks must be > 0",
              name, static_cast<long long>(tenant.duration));
    if (tenant.workload == TenantWorkload::Memcached &&
        tenant.qpsPerVcpu <= 0)
        fatal("TenantSpec '%s': memcached tenants need an offered "
              "load; qpsPerVcpu %g must be > 0",
              name, tenant.qpsPerVcpu);
    if (tenant.workload == TenantWorkload::Video && tenant.fps <= 0)
        fatal("TenantSpec '%s': video tenants need a frame rate; "
              "fps %g must be > 0",
              name, tenant.fps);
}

void
validateFleetSpec(const FleetSpec &spec)
{
    validateTopologySpec(spec.topology);
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
    if (spec.policy == PlacementPolicy::SvtPair) {
        if (spec.topology.smtWays % 2 != 0)
            fatal("FleetSpec: policy svt-pair pairs each vCPU with an "
                  "SVt thread on its SMT sibling, which needs an even "
                  "number of SMT ways per core; this topology has %d. "
                  "Use smtWays=2 (the Table 4 testbed) or a non-paired "
                  "policy (sibling-share, isolate)",
                  spec.topology.smtWays);
        if (!isSvtMode(spec.pairedMode))
            fatal("FleetSpec: pairedMode %s is not an SVt mode; "
                  "svt-pair slots run SwSvt or HwSvt stacks",
                  virtModeName(spec.pairedMode));
    }
    const int demand = totalVcpuDemand(spec);
    const int capacity = policyCapacity(spec.topology, spec.policy);
    if (demand > capacity)
        fatal("FleetSpec: tenants demand %d vCPUs but policy %s on "
              "%d sockets x %d cores x %d-way SMT offers only %d "
              "slots; shrink the tenant set%s",
              demand, placementPolicyName(spec.policy),
              spec.topology.sockets, spec.topology.coresPerSocket,
              spec.topology.smtWays, capacity,
              spec.policy == PlacementPolicy::SiblingShare
                  ? ""
                  : " or switch to sibling-share (smtWays vCPUs per "
                    "core)");
    if (spec.smtContention < 0)
        fatal("FleetSpec: smtContention %g must be >= 0 (a "
              "fractional slowdown)",
              spec.smtContention);
    if (spec.linkLatency <= 0)
        fatal("FleetSpec: linkLatency %lld ticks must be > 0 (it is "
              "the conservative lookahead of the loadgen links)",
              static_cast<long long>(spec.linkLatency));
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
                            ? spec.topology.smtWays
                            : 1;
    for (std::size_t i = 0; i < demand.size(); ++i) {
        const int core = cores[i / perCore];
        PlacementSlot slot;
        slot.tenant = demand[i].tenant;
        slot.vcpu = demand[i].vcpu;
        slot.socket = core / spec.topology.coresPerSocket;
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
