/**
 * @file
 * Declarative fleet description: topology, tenants, placement policy.
 *
 * The paper's central claim — pairing each L2 vCPU with an SVt thread
 * on the adjacent SMT sibling beats both sharing the sibling with
 * another vCPU and leaving it idle — is exercised here at rack scale:
 * an L0 fleet scheduler places many L1 hypervisors (each hosting an
 * L2 vCPU) across the full Table 4 topology under one of three
 * SMT-sibling policies, all first-class sweepable knobs:
 *
 *  - svt-pair: each placed vCPU owns a core; the SMT sibling runs its
 *    SVt thread (SW SVt, or the HW SVt context when pairedMode says
 *    so). Capacity: one vCPU per core.
 *  - sibling-share: consolidation — both SMT ways of a core host
 *    independent vCPUs (conventional nested stacks), which contend
 *    for the core's execution slots. Capacity: smtWays vCPUs per
 *    core.
 *  - isolate: each vCPU owns a core and the sibling idles
 *    (conventional nested stack, no SMT interference, half the
 *    machine wasted). Capacity: one vCPU per core.
 *
 * Following the validateStackConfig discipline, a FleetSpec is
 * validated at construction: overcommitting vCPUs beyond the policy
 * capacity, SVt pairing on a topology without sibling pairs, empty
 * tenant sets and malformed tenants are FatalErrors with actionable
 * messages, raised before anything is built.
 */

#ifndef SVTSIM_SYSTEM_FLEET_FLEET_SPEC_H
#define SVTSIM_SYSTEM_FLEET_FLEET_SPEC_H

#include <cstdint>
#include <string>
#include <vector>

#include "hv/stack_config.h"
#include "sim/ticks.h"

namespace svtsim {

/** Physical topology the fleet is placed on (Table 4 defaults:
 *  2 sockets x 8 cores x 2-way SMT; each dimension in [1, 1024]). */
struct TopologySpec
{
    int sockets = 2;
    int coresPerSocket = 8;
    int smtWays = 2;

    int totalCores() const { return sockets * coresPerSocket; }
};

/** SMT-sibling placement policy (see the file comment). */
enum class PlacementPolicy
{
    SvtPair,
    SiblingShare,
    Isolate,
};

/** Canonical knob spelling: "svt-pair" | "sibling-share" | "isolate". */
const char *placementPolicyName(PlacementPolicy policy);

/** Workload class a tenant runs (the paper's Section 6.3 set). */
enum class TenantWorkload
{
    Memcached, ///< ETC key-value serving under an open-loop loadgen.
    Tpcc,      ///< sysbench-TPCC over a PostgreSQL-like server.
    Video,     ///< Soft-realtime 4K playback.
};

const char *tenantWorkloadName(TenantWorkload workload);

/**
 * One tenant: a workload class, its vCPU demand, and its SLO. The SLO
 * target's unit depends on the workload:
 *  - Memcached: p99 request latency in usec (paper SLA: 500);
 *  - Tpcc: mean transaction latency in msec;
 *  - Video: dropped-frame fraction.
 * The SLO is met iff the measured value is <= sloTarget.
 */
struct TenantSpec
{
    std::string name;
    TenantWorkload workload = TenantWorkload::Memcached;
    /** L2 vCPUs demanded; each becomes one placement slot. */
    int vcpus = 1;
    double sloTarget = 500.0;
    /** Offered load per vCPU (Memcached only). */
    double qpsPerVcpu = 8000.0;
    /** Frame rate (Video only). */
    double fps = 60.0;
    /** Simulated run length of this tenant's drivers. */
    Ticks duration = msec(200);
};

/** Convenience constructors with workload-appropriate defaults. */
TenantSpec memcachedTenant(std::string name, int vcpus,
                           double qps_per_vcpu,
                           double slo_p99_usec = 500.0);
TenantSpec tpccTenant(std::string name, int vcpus,
                      double slo_mean_txn_msec = 120.0);
TenantSpec videoTenant(std::string name, int vcpus, double fps = 60.0,
                       double slo_drop_fraction = 0.01);

/** The whole fleet: topology + policy + tenants + fabric. */
struct FleetSpec
{
    TopologySpec topology{};
    PlacementPolicy policy = PlacementPolicy::SvtPair;
    /** Stack mode of svt-pair slots (SwSvt or HwSvt; other policies
     *  always run conventional Nested stacks). */
    VirtMode pairedMode = VirtMode::SwSvt;
    std::vector<TenantSpec> tenants;
    /** Wire between a memcached tenant's loadgen box and its serving
     *  slots (ToR-switch scale). */
    Ticks linkLatency = usec(25);
    /** Fractional slowdown of CPU-bound work on a core whose SMT
     *  sibling runs another tenant's vCPU (sibling-share only;
     *  Section 6.1 measures 0.28 for a busy-polling sibling). */
    double smtContention = 0.35;
};

/** vCPU capacity of @p topo under @p policy (see file comment). */
int policyCapacity(const TopologySpec &topo, PlacementPolicy policy);

/** Total vCPU demand across tenants. */
int totalVcpuDemand(const FleetSpec &spec);

// Construction-time validation (FatalError with actionable messages).
void validateTopologySpec(const TopologySpec &topo);
void validateTenantSpec(const TenantSpec &tenant);
void validateFleetSpec(const FleetSpec &spec);

/** One placed vCPU: which tenant, where, and with whom. */
struct PlacementSlot
{
    /** Tenant index into FleetSpec::tenants. */
    int tenant = 0;
    /** vCPU ordinal within the tenant. */
    int vcpu = 0;
    int socket = 0;
    /** Global core index (socket-major). */
    int core = 0;
    /** SMT way on the core. */
    int thread = 0;
    /** True when another slot occupies a sibling way of this core. */
    bool sharedSibling = false;
    /** Tenant index of the sibling slot (-1 when none). */
    int siblingTenant = -1;
};

/** Deterministic placement of every tenant vCPU. */
struct FleetPlacement
{
    std::vector<PlacementSlot> slots;
};

/**
 * Place the fleet: validates @p spec, then assigns vCPUs (round-robin
 * across tenants, so sibling-share actually co-schedules *different*
 * tenants on a core) to cores in a seed-shuffled deterministic order.
 * A pure function of (spec, seed): same inputs, identical placement.
 */
FleetPlacement placeFleet(const FleetSpec &spec, std::uint64_t seed);

} // namespace svtsim

#endif // SVTSIM_SYSTEM_FLEET_FLEET_SPEC_H
