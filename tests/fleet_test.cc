/**
 * @file
 * Fleet scheduler tests: spec validation rejection matrix, placement
 * determinism, jobs-count byte-identity of fleet outcomes, the
 * per-pair lookahead engine under heterogeneous link latencies, and
 * the Table 4 policy ordering (svt-pair beats isolate).
 */

#include <climits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "hostile_draws.h"
#include "io/cross_link.h"
#include "sim/log.h"
#include "system/cluster.h"
#include "system/cluster_spec.h"
#include "system/fleet/fleet_scheduler.h"

using namespace svtsim;

namespace {

template <typename F>
void
expectFatal(F f, const std::string &needle)
{
    try {
        f();
        FAIL() << "expected FatalError containing '" << needle << "'";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(needle),
                  std::string::npos)
            << "message: " << e.what();
    }
}

FleetSpec
smallSpec(PlacementPolicy policy)
{
    FleetSpec spec;
    spec.topology = TopologySpec{1, 2, 2};
    spec.policy = policy;
    TenantSpec mc = memcachedTenant("mc", 1, 4000.0);
    mc.duration = msec(40);
    TenantSpec vid = videoTenant("vid", 1, 60.0, 0.5);
    vid.duration = msec(200);
    spec.tenants = {mc, vid};
    if (policy == PlacementPolicy::SiblingShare) {
        spec.tenants[0].vcpus = 2;
        spec.tenants[1].vcpus = 2;
    }
    return spec;
}

std::string
outcomeFingerprint(const FleetOutcome &o)
{
    std::ostringstream os;
    os.precision(17);
    for (const TenantOutcome &t : o.tenants)
        os << t.name << ':' << t.sloValue << '/' << t.achievedQps
           << '/' << t.completed << '/' << t.tpm << '/' << t.frames
           << '/' << t.droppedFrames << '/' << t.interference << ' ';
    os << "p99=" << o.fleetP99Usec << " sla=" << o.qpsUnderSla;
    return os.str();
}

// ---- Validation rejection matrix --------------------------------

TEST(FleetSpecValidation, RejectsMalformedSpecs)
{
    expectFatal(
        [] {
            FleetSpec spec;
            validateFleetSpec(spec);
        },
        "empty tenant set");

    expectFatal(
        [] {
            TopologySpec topo{0, 8, 2};
            validateTopologySpec(topo);
        },
        "every dimension must be >= 1");

    // Slot counts that would overflow an int are rejected before the
    // product or sum is formed (46341^2 > INT_MAX).
    expectFatal(
        [] {
            FleetSpec spec;
            spec.topology = TopologySpec{46341, 46341, 1};
            spec.tenants = {memcachedTenant("mc", 1, 1000)};
            validateFleetSpec(spec);
        },
        "<= 1024");
    expectFatal(
        [] {
            TopologySpec topo{2, 8, INT_MAX};
            validateTopologySpec(topo);
        },
        "<= 1024");
    expectFatal(
        [] {
            FleetSpec spec;
            spec.tenants = {memcachedTenant("big", INT_MAX, 1000),
                            memcachedTenant("two", 2, 1000)};
            validateFleetSpec(spec);
        },
        "does not fit an int");

    expectFatal(
        [] {
            TenantSpec t = memcachedTenant("", 1, 1000);
            validateTenantSpec(t);
        },
        "empty name");

    expectFatal(
        [] {
            TenantSpec t = memcachedTenant("mc", 0, 1000);
            validateTenantSpec(t);
        },
        "at least one");

    expectFatal(
        [] {
            TenantSpec t = memcachedTenant("mc", 1, 1000, -5);
            validateTenantSpec(t);
        },
        "SLO target");

    expectFatal(
        [] {
            TenantSpec t = memcachedTenant("mc", 1, 0);
            validateTenantSpec(t);
        },
        "qpsPerVcpu");

    expectFatal(
        [] {
            TenantSpec t = videoTenant("vid", 1, 0);
            validateTenantSpec(t);
        },
        "fps");

    expectFatal(
        [] {
            FleetSpec spec;
            spec.tenants = {memcachedTenant("mc", 1, 1000),
                            memcachedTenant("mc", 1, 1000)};
            validateFleetSpec(spec);
        },
        "declared twice");

    // vCPU overcommit names the numbers and the escape hatch.
    expectFatal(
        [] {
            FleetSpec spec;
            spec.topology = TopologySpec{1, 2, 2};
            spec.tenants = {memcachedTenant("mc", 3, 1000)};
            validateFleetSpec(spec);
        },
        "only 2 slots");

    // SVt pairing needs sibling pairs.
    expectFatal(
        [] {
            FleetSpec spec;
            spec.topology = TopologySpec{1, 2, 1};
            spec.policy = PlacementPolicy::SvtPair;
            spec.tenants = {memcachedTenant("mc", 1, 1000)};
            validateFleetSpec(spec);
        },
        "even number of SMT ways");

    expectFatal(
        [] {
            FleetSpec spec;
            spec.topology = TopologySpec{1, 2, 2};
            spec.policy = PlacementPolicy::SvtPair;
            spec.pairedMode = VirtMode::Nested;
            spec.tenants = {memcachedTenant("mc", 1, 1000)};
            validateFleetSpec(spec);
        },
        "not an SVt mode");
}

TEST(ClusterSpecValidation, RejectsMalformedSpecs)
{
    expectFatal([] { ClusterSpec().validate(); }, "no machines");

    expectFatal(
        [] {
            ClusterSpec cs;
            cs.machine("a", VirtMode::Native)
                .machine("a", VirtMode::Native);
            cs.validate();
        },
        "declared twice");

    expectFatal(
        [] {
            ClusterSpec cs;
            cs.machine("a", VirtMode::Native).link("a", "ghost");
            cs.validate();
        },
        "not a declared machine");

    expectFatal(
        [] {
            ClusterSpec cs;
            cs.machine("a", VirtMode::Native).link("a", "a");
            cs.validate();
        },
        "itself");

    expectFatal(
        [] {
            ClusterSpec cs;
            cs.machine("a", VirtMode::Native)
                .machine("b", VirtMode::Native)
                .link("a", "b")
                .link("b", "a");
            cs.validate();
        },
        "linked twice");

    expectFatal(
        [] {
            ClusterSpec cs;
            cs.machine("a", VirtMode::Native)
                .machine("b", VirtMode::Native)
                .link("a", "b", 0, 10e9);
            cs.validate();
        },
        "non-positive");
}

TEST(FleetSpecValidation, RandomSpecsValidateOrThrowFatalError)
{
    // Seeded fleets with hostile topologies, tenants and knobs (0,
    // negatives, INT_MIN/MAX, 64-bit tick extremes, out-of-range enum
    // values, empty and repeated names): each one either validates or
    // raises FatalError; anything else escaping (a signed-overflow
    // abort under UBSan included) is a validator bug. Nothing is
    // placed or run.
    Rng rng(2030);
    const char *names[] = {"", "a", "b", "c"};
    auto small = [&rng] { return 1 + static_cast<int>(rng.below(4)); };
    int valid = 0, rejected = 0;
    for (int i = 0; i < 5000; ++i) {
        FleetSpec spec;
        const bool hostileTopo = rng.below(3) == 0;
        spec.topology = TopologySpec{
            hostileTopo ? hostileInt(rng) : small(),
            hostileTopo ? hostileInt(rng) : small(),
            hostileTopo ? hostileInt(rng) : 2};
        if (rng.below(4) == 0)
            spec.policy = hostileEnum<PlacementPolicy>(rng, 3);
        if (rng.below(4) == 0)
            spec.pairedMode = hostileEnum<VirtMode>(rng, 5);
        for (std::uint64_t t = 0, n = rng.below(4); t < n; ++t) {
            TenantSpec tenant = memcachedTenant(
                names[rng.below(std::size(names))], 1, 1000);
            if (rng.below(4) == 0)
                tenant.workload = hostileEnum<TenantWorkload>(rng, 3);
            tenant.vcpus = rng.below(2) ? 1 : hostileInt(rng);
            if (rng.below(4) == 0)
                tenant.sloTarget = hostileInt(rng);
            if (rng.below(4) == 0)
                tenant.qpsPerVcpu = hostileInt(rng);
            if (rng.below(4) == 0)
                tenant.fps = hostileInt(rng);
            if (rng.below(4) == 0)
                tenant.duration = hostileTicks(rng);
            spec.tenants.push_back(tenant);
        }
        if (rng.below(4) == 0)
            spec.linkLatency = hostileTicks(rng);
        if (rng.below(4) == 0)
            spec.smtContention = hostileInt(rng);
        try {
            validateFleetSpec(spec);
            ++valid;
        } catch (const FatalError &) {
            ++rejected;
        }
    }
    EXPECT_GT(valid, 100);
    EXPECT_GT(rejected, 100);
}

TEST(ClusterSpecValidation, RandomSpecsValidateOrThrowFatalError)
{
    // Seeded cluster declarations: names from a small pool (empty and
    // undeclared ones included), hostile stack configs and wire
    // parameters. Each one either validates or raises FatalError;
    // nothing is realized, so no machine is built and nothing runs.
    Rng rng(2031);
    const char *names[] = {"", "a", "b", "c", "z"};
    auto pick = [&] { return names[rng.below(std::size(names))]; };
    int valid = 0, rejected = 0;
    for (int i = 0; i < 5000; ++i) {
        ClusterSpec cs;
        for (std::uint64_t m = 0, n = rng.below(4); m < n; ++m)
            cs.machine(pick(), MachineTopology{},
                       rng.below(4) ? StackConfig{}
                                    : hostileStackConfig(rng));
        for (std::uint64_t l = 0, n = rng.below(4); l < n; ++l) {
            if (rng.below(2))
                cs.link(pick(), pick());
            else
                cs.link(pick(), pick(), hostileTicks(rng),
                        hostileInt(rng));
        }
        try {
            cs.validate();
            ++valid;
        } catch (const FatalError &) {
            ++rejected;
        }
    }
    EXPECT_GT(valid, 100);
    EXPECT_GT(rejected, 100);
}

TEST(ClusterSpecBuild, ResolvesNamesAndPorts)
{
    ClusterSpec cs;
    cs.machine("server", VirtMode::Nested)
        .machine("client", VirtMode::Native)
        .link("server", "client", usec(2), 10e9);
    Cluster cluster = cs.realize(1);
    // Machine ids are declaration indices.
    EXPECT_EQ(&cluster.machine("server"), &cluster.machine(0));
    EXPECT_EQ(&cluster.machine("client"), &cluster.machine(1));
    EXPECT_EQ(&cluster.port("server", "client"),
              &cluster.link("server", "client").port(0));
    EXPECT_EQ(&cluster.port("client", "server"),
              &cluster.link("server", "client").port(1));
    expectFatal([&] { cluster.machine("ghost"); }, "unknown machine");
    expectFatal([&] { cluster.port("server", "server"); }, "no link");
}

// ---- Placement ---------------------------------------------------

TEST(FleetPlacement, DeterministicPerSeed)
{
    const FleetSpec spec = smallSpec(PlacementPolicy::SiblingShare);
    const FleetPlacement a = placeFleet(spec, 17);
    const FleetPlacement b = placeFleet(spec, 17);
    ASSERT_EQ(a.slots.size(), b.slots.size());
    for (std::size_t i = 0; i < a.slots.size(); ++i) {
        EXPECT_EQ(a.slots[i].tenant, b.slots[i].tenant);
        EXPECT_EQ(a.slots[i].vcpu, b.slots[i].vcpu);
        EXPECT_EQ(a.slots[i].core, b.slots[i].core);
        EXPECT_EQ(a.slots[i].thread, b.slots[i].thread);
        EXPECT_EQ(a.slots[i].sharedSibling, b.slots[i].sharedSibling);
    }
}

TEST(FleetPlacement, PolicyShapes)
{
    // svt-pair / isolate: one slot per core, thread 0, no sharing.
    for (PlacementPolicy policy :
         {PlacementPolicy::SvtPair, PlacementPolicy::Isolate}) {
        const FleetPlacement p = placeFleet(smallSpec(policy), 3);
        ASSERT_EQ(p.slots.size(), 2u);
        EXPECT_NE(p.slots[0].core, p.slots[1].core);
        for (const PlacementSlot &s : p.slots) {
            EXPECT_EQ(s.thread, 0);
            EXPECT_FALSE(s.sharedSibling);
            EXPECT_EQ(s.siblingTenant, -1);
        }
    }
    // sibling-share at full demand: every slot shares its core with
    // another tenant's vCPU (round-robin interleaves tenants).
    const FleetPlacement p =
        placeFleet(smallSpec(PlacementPolicy::SiblingShare), 3);
    ASSERT_EQ(p.slots.size(), 4u);
    for (const PlacementSlot &s : p.slots) {
        EXPECT_TRUE(s.sharedSibling);
        ASSERT_GE(s.siblingTenant, 0);
        EXPECT_NE(s.siblingTenant, s.tenant);
    }
}

// ---- Byte-identity across worker counts --------------------------

TEST(FleetScheduler, OutcomeIdenticalAcrossClusterJobs)
{
    const FleetSpec spec = smallSpec(PlacementPolicy::SiblingShare);
    FleetScheduler seq(spec, 11);
    FleetScheduler par(spec, 11);
    const std::string a = outcomeFingerprint(seq.run(1));
    const std::string b = outcomeFingerprint(par.run(4));
    EXPECT_EQ(a, b);
}

TEST(FleetScheduler, SvtPairOutcomeIdenticalAcrossClusterJobs)
{
    const FleetSpec spec = smallSpec(PlacementPolicy::SvtPair);
    FleetScheduler seq(spec, 5);
    FleetScheduler par(spec, 5);
    EXPECT_EQ(outcomeFingerprint(seq.run(1)),
              outcomeFingerprint(par.run(3)));
}

// ---- Per-pair lookahead engine -----------------------------------

/**
 * Heterogeneous chain a -(1us)- b -(1ms)- c plus an unlinked machine
 * d. Per-pair horizons must keep a<->b windows at the 1us scale while
 * letting c (behind the slow wire) and d (unreachable) take large
 * windows — and the result must stay byte-identical vs the
 * sequential oracle.
 */
TEST(Cluster, PerPairLookaheadHeterogeneousChain)
{
    auto fingerprint = [](int jobs) {
        Cluster cluster = ClusterSpec()
                              .machine("a", VirtMode::Native)
                              .machine("b", VirtMode::Native)
                              .machine("c", VirtMode::Native)
                              .machine("d", VirtMode::Native)
                              .link("a", "b", usec(1), 10e9)
                              .link("b", "c", msec(1), 10e9)
                              .realize(7);
        CrossLink &ab = cluster.link("a", "b");
        CrossLink &bc = cluster.link("b", "c");

        // b forwards every packet from a onward to c; c counts.
        std::uint64_t forwarded = 0, arrived = 0;
        Ticks lastArrival = 0;
        ab.port(1).setReceiveHandler([&](NetPacket pkt) {
            ++forwarded;
            bc.port(0).send(pkt);
        });
        Machine &mc = cluster.machine("c");
        bc.port(1).setReceiveHandler([&](NetPacket) {
            ++arrived;
            lastArrival = mc.now();
        });

        cluster.driver("a", [&ab](NestedSystem &sys) {
            Machine &m = sys.machine();
            for (std::uint64_t i = 0; i < 50; ++i) {
                ab.port(0).send(NetPacket{i + 1, 200, 0});
                m.idleUntil(m.now() + usec(3));
            }
            m.idleUntil(msec(5));
        });
        cluster.driver("d", [](NestedSystem &sys) {
            sys.machine().idleUntil(msec(2));
        });

        ClusterStats stats = cluster.run(jobs);
        // a's 50 sends, 3 us apart, each cross its 1 us window to b;
        // had every machine shared that window, reaching a's 5 ms end
        // would take 5,000 epochs.
        EXPECT_GE(stats.epochs, 50u) << "jobs " << jobs;
        EXPECT_LT(stats.epochs, 1000u) << "jobs " << jobs;
        std::ostringstream os;
        os << forwarded << '/' << arrived << '/' << lastArrival
           << " merged=" << stats.merged << " epochs=" << stats.epochs;
        for (int i = 0; i < cluster.size(); ++i)
            os << " t" << i << '=' << cluster.machine(i).now();
        return os.str();
    };
    const std::string seq = fingerprint(1);
    EXPECT_EQ(seq, fingerprint(4));
    EXPECT_NE(seq.find("50/50/"), std::string::npos) << seq;
}

// ---- The Table 4 claim at fleet scale ----------------------------

TEST(FleetScheduler, SvtPairBeatsIsolateTail)
{
    FleetSpec pair = smallSpec(PlacementPolicy::SvtPair);
    FleetSpec iso = smallSpec(PlacementPolicy::Isolate);
    const FleetOutcome a = FleetScheduler(pair, 9).run(2);
    const FleetOutcome b = FleetScheduler(iso, 9).run(2);
    ASSERT_GT(a.tenants[0].completed, 0u);
    ASSERT_GT(b.tenants[0].completed, 0u);
    // Same placement demand, same offered load; the svt-pair slots
    // run SVt stacks whose exits are cheaper, so the memcached tail
    // and the exit-time share both improve.
    EXPECT_LE(a.tenants[0].p99Usec, b.tenants[0].p99Usec);
    EXPECT_LT(a.tenants[0].interference, b.tenants[0].interference);
}

} // namespace
