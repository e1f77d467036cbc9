/**
 * @file
 * Tests for the conservative parallel cluster engine and its
 * supporting layers: the EventQueue horizon fast path, the epoch
 * crew's ticket barrier, CrossLink ordering/latency properties, and the
 * headline determinism contract — a cluster run is byte-identical for
 * any worker count, including under fault injection — and the driver
 * fibers: they run on the threads that step their machines, and their
 * errors are contained and rethrown after every fiber has unwound.
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/cross_link.h"
#include "io/virtio_net.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "system/cluster.h"
#include "system/epoch_crew.h"
#include "system/nested_system.h"
#include "workloads/netperf.h"

namespace svtsim {
namespace {

// ---------------------------------------------------------------------
// EventQueue::runUntilTick (the cluster window drain fast path).

TEST(RunUntilTick, FiresStrictlyBelowLimitOnly)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10, [&] { fired.push_back(1); });
    q.schedule(99, [&] { fired.push_back(2); });
    q.schedule(100, [&] { fired.push_back(3); });
    q.schedule(150, [&] { fired.push_back(4); });

    EXPECT_EQ(q.runUntilTick(100), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    // The clock stays at the last fired event, not at the limit.
    EXPECT_EQ(q.now(), 99);

    EXPECT_EQ(q.runUntilTick(1000), 2u);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(q.now(), 150);
}

TEST(RunUntilTick, EventsScheduledDuringDrainRun)
{
    EventQueue q;
    int count = 0;
    // A chain that re-schedules itself inside the window.
    std::function<void()> chain = [&] {
        ++count;
        if (count < 5)
            q.scheduleIn(10, [&] { chain(); });
    };
    q.schedule(10, [&] { chain(); });
    q.runUntilTick(100);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(q.now(), 50);
}

TEST(RunUntilTick, EmptyWindowIsANoOp)
{
    EventQueue q;
    q.schedule(500, [] {});
    EXPECT_EQ(q.runUntilTick(100), 0u);
    EXPECT_EQ(q.now(), 0);
    EXPECT_EQ(q.nextEventTime(), 500);
}

TEST(RunUntilTick, CascadeMovesClockToWindowBase)
{
    // Finding the next event cascades its level-1 slot down, and the
    // clock follows the wheel to that slot's base (256) even though
    // nothing fires below the limit. Machine::drainUntil charges the
    // move as idle time, so the committed outputs depend on it.
    EventQueue q;
    q.schedule(300, [] {});
    EXPECT_EQ(q.runUntilTick(280), 0u);
    EXPECT_EQ(q.now(), 256);
    EXPECT_EQ(q.nextEventTime(), 300);
}

// ---------------------------------------------------------------------
// AdvanceGate: an advance past the horizon waits at the gate even when
// no event is due, so the fast path must test the horizon too.

/** Grants the horizon 100 ticks at a time and counts the waits. */
class StepGate : public AdvanceGate
{
  public:
    explicit StepGate(EventQueue &q) : q_(q) {}

    Ticks
    awaitHorizon(Ticks) override
    {
        ++waits;
        return q_.horizon() + 100;
    }

    int waits = 0;

  private:
    EventQueue &q_;
};

TEST(AdvanceGate, AdvancePastHorizonWaitsOnceAndIdleReturnsEarly)
{
    EventQueue q;
    StepGate gate(q);
    bool fired = false;
    q.schedule(10000, [&] { fired = true; });
    q.setAdvanceGate(&gate, 100);

    // Nothing is due before 10,000, but 150 is past the horizon.
    q.advanceBy(150);
    EXPECT_EQ(gate.waits, 1);
    EXPECT_EQ(q.horizon(), 200);
    EXPECT_EQ(q.now(), 150);

    // An idle wait hands control back after one re-grant, short of
    // its target.
    q.idleTo(1000);
    EXPECT_EQ(gate.waits, 2);
    EXPECT_EQ(q.horizon(), 300);
    EXPECT_LT(q.now(), 1000);
    EXPECT_FALSE(fired);

    q.setAdvanceGate(nullptr, 0);
    q.advanceTo(10000);
    EXPECT_TRUE(fired);
    EXPECT_EQ(gate.waits, 2);
}

// ---------------------------------------------------------------------
// EpochCrew: the cluster's epoch barrier.

/** CPUs this process may run on. */
int
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

TEST(EpochCrew, EveryPublishedStepRunsOnceUnderItsOwnEpoch)
{
    constexpr std::uint32_t kEpochs = 10000;
    // Every 500th epoch follows a pause long enough for the members
    // to park, then publishes two steps: the coordinator usually
    // claims both before any member is awake again.
    constexpr std::uint32_t kParkEvery = 500;
    std::vector<std::uint32_t> counts(kEpochs);
    std::vector<std::size_t> offsets(kEpochs + 1, 0);
    std::uint64_t lcg = 12345;
    for (std::uint32_t e = 0; e < kEpochs; ++e) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        counts[e] = e % kParkEvery == kParkEvery - 1
                        ? 2
                        : static_cast<std::uint32_t>((lcg >> 33) % 18);
        offsets[e + 1] = offsets[e] + counts[e];
    }

    int coordinatorOnly = 0;
    for (int members = 1; members <= 3; ++members) {
        // One slot per published (epoch, index): a step counts itself
        // in the slot of the epoch the coordinator is running.
        std::vector<std::atomic<std::uint32_t>> runs(offsets[kEpochs]);
        std::atomic<std::uint32_t> current{0};
        std::atomic<std::uint32_t> foreign{0};
        std::atomic<std::uint32_t> onMembers{0};
        const std::thread::id coordinator = std::this_thread::get_id();
        EpochCrew crew(members, [&](std::size_t k) {
            const std::uint32_t e =
                current.load(std::memory_order_relaxed);
            if (k >= counts[e]) {
                foreign.fetch_add(1);
                return;
            }
            runs[offsets[e] + k].fetch_add(1,
                                           std::memory_order_relaxed);
            if (std::this_thread::get_id() != coordinator)
                onMembers.fetch_add(1, std::memory_order_relaxed);
        });

        for (std::uint32_t e = 0; e < kEpochs; ++e) {
            const bool parkFirst = e % kParkEvery == kParkEvery - 1;
            if (parkFirst)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            current.store(e, std::memory_order_relaxed);
            const std::uint32_t memberRunsBefore = onMembers.load();
            crew.run(counts[e]);
            // run() returns only once every step of the epoch is done.
            for (std::uint32_t k = 0; k < counts[e]; ++k) {
                ASSERT_EQ(runs[offsets[e] + k].load(), 1u)
                    << "members " << members << " epoch " << e
                    << " step " << k;
            }
            if (parkFirst && onMembers.load() == memberRunsBefore)
                ++coordinatorOnly;
        }
        // No step ran twice, late, or outside its epoch's range.
        EXPECT_EQ(foreign.load(), 0u) << "members " << members;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            ASSERT_EQ(runs[i].load(), 1u) << "members " << members
                                          << " slot " << i;
        }
        // With a CPU to spare, members took part. (On one CPU either
        // side may take every step.)
        if (affinityCpus() > 1) {
            EXPECT_GT(onMembers.load(), 0u) << "members " << members;
        }
    }
    // ...and the coordinator outran parked members at least once.
    if (affinityCpus() > 1) {
        EXPECT_GT(coordinatorOnly, 0);
    }
}

TEST(EpochCrew, DestroyedWithParkedMembersJoins)
{
    std::atomic<int> ran{0};
    {
        EpochCrew crew(3, [&](std::size_t) { ++ran; });
        crew.run(5);
        crew.run(0);
        crew.run(1);
        // Long enough for every member to give up spinning and park.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    EXPECT_EQ(ran.load(), 6);
    // A crew that never ran an epoch joins too, started or not.
    { EpochCrew idle(2, [](std::size_t) {}); }
}

// ---------------------------------------------------------------------
// CrossLink wire properties.

TEST(CrossLink, DeliveryRespectsSerializationPlusLatency)
{
    NestedSystem sysA(VirtMode::Native);
    NestedSystem sysB(VirtMode::Native);
    const Ticks latency = usec(5);
    const double rate = 10e9;
    CrossLink link(sysA.machine(), 0, sysB.machine(), 1, latency,
                   rate);

    std::vector<Ticks> arrivals;
    std::vector<std::uint64_t> ids;
    link.port(1).setReceiveHandler([&](NetPacket pkt) {
        arrivals.push_back(sysB.machine().now());
        ids.push_back(pkt.id);
    });

    const std::uint32_t bytes = 1000;
    const Ticks ser = link.port(0).serialization(bytes);
    ASSERT_GT(ser, 0);
    // Two back-to-back sends: the second queues behind the first's
    // serialization (the wire is busy), both cross the latency.
    link.port(0).send(NetPacket{1, bytes, 0});
    link.port(0).send(NetPacket{2, bytes, 0});
    EXPECT_EQ(link.stagedCount(), 2u);

    link.deliverStaged();
    sysB.machine().events().runUntilTick(maxTick);

    ASSERT_EQ(arrivals.size(), 2u);
    EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_EQ(arrivals[0], ser + latency);
    EXPECT_EQ(arrivals[1], 2 * ser + latency);
}

TEST(CrossLink, FifoPerDirectionUnderRandomSends)
{
    NestedSystem sysA(VirtMode::Native, {}, 11);
    NestedSystem sysB(VirtMode::Native, {}, 12);
    CrossLink link(sysA.machine(), 0, sysB.machine(), 1, usec(3),
                   10e9);

    std::vector<std::uint64_t> got;
    std::vector<Ticks> when;
    link.port(1).setReceiveHandler([&](NetPacket pkt) {
        got.push_back(pkt.id);
        when.push_back(sysB.machine().now());
    });

    Rng rng(99);
    std::uint64_t id = 0;
    for (int round = 0; round < 20; ++round) {
        // Source machine advances between bursts; sizes vary, so
        // serialization times differ per packet.
        sysA.machine().events().scheduleIn(
            nsec(50 + static_cast<Ticks>(rng.below(2000))), [] {});
        sysA.machine().events().runUntilTick(maxTick);
        int burst = 1 + static_cast<int>(rng.below(4));
        for (int i = 0; i < burst; ++i)
            link.port(0).send(NetPacket{
                id++,
                64 + static_cast<std::uint32_t>(rng.below(9000)), 0});
    }
    link.deliverStaged();
    sysB.machine().events().runUntilTick(maxTick);

    ASSERT_EQ(got.size(), id);
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], i); // FIFO: ids in send order
    for (std::size_t i = 1; i < when.size(); ++i)
        EXPECT_LE(when[i - 1], when[i]); // arrivals monotone
}

TEST(CrossLink, CanonicalMergeOrdersAcrossLinks)
{
    NestedSystem hub(VirtMode::Native);
    NestedSystem peer1(VirtMode::Native);
    NestedSystem peer2(VirtMode::Native);
    // Same latency/rate: equal-size packets from both peers collide
    // on the same arrival tick, forcing the src-id tie break.
    CrossLink l1(peer1.machine(), 1, hub.machine(), 0, usec(2), 10e9);
    CrossLink l2(peer2.machine(), 2, hub.machine(), 0, usec(2), 10e9);

    std::vector<std::pair<Ticks, std::uint64_t>> seen;
    auto handler = [&](NetPacket pkt) {
        seen.emplace_back(hub.machine().now(), pkt.id);
    };
    l1.port(1).setReceiveHandler(handler);
    l2.port(1).setReceiveHandler(handler);

    l2.port(0).send(NetPacket{20, 500, 0});
    l1.port(0).send(NetPacket{10, 500, 0});

    std::vector<CrossLink::Delivery> staged;
    l1.drainStaged(staged);
    l2.drainStaged(staged);
    std::stable_sort(staged.begin(), staged.end(),
                     CrossLink::canonicalLess);
    ASSERT_EQ(staged.size(), 2u);
    // Identical arrival tick: the lower src machine id delivers first.
    EXPECT_EQ(staged[0].arrival, staged[1].arrival);
    EXPECT_EQ(staged[0].srcId, 1);
    EXPECT_EQ(staged[1].srcId, 2);
    for (const auto &d : staged)
        d.link->deliver(d);
    hub.machine().events().runUntilTick(maxTick);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].second, 10u);
    EXPECT_EQ(seen[1].second, 20u);
}

TEST(CrossLink, IntegerSerializationMatchesExactRate)
{
    // (bytes + framing) * 8 bits at 10 GbE: exact picosecond math,
    // no double rounding (platform determinism).
    EXPECT_EQ(netlink::serializationTicks(1000, 10'000'000'000LL),
              Ticks{(1000 + 78) * 8 * 100});
    EXPECT_EQ(netlink::serializationTicks(0, 10'000'000'000LL),
              Ticks{78 * 8 * 100});
    EXPECT_EQ(netlink::serializationTicks(1522, 40'000'000'000LL),
              Ticks{(1522 + 78) * 8 * 25});
}

TEST(CrossLink, SameMachineLinkSkipsTheBarrier)
{
    NestedSystem sys(VirtMode::Native);
    CrossLink link(sys.machine(), 0, 10e9);
    std::uint64_t got = 0;
    link.port(1).setReceiveHandler([&](NetPacket) { ++got; });
    link.port(0).send(NetPacket{1, 100, 0});
    EXPECT_EQ(link.stagedCount(), 0u);
    sys.machine().events().runUntilTick(maxTick);
    EXPECT_EQ(got, 1u);
}

// ---------------------------------------------------------------------
// Packet conservation: sent from one end == delivered at the other.

const char *const kDelayPlan = "virtio.completion.delay@p0.3,d40us";

/**
 * Seeded two-way traffic over @p link: each end sends 150 packets at
 * random times on its own machine and echoes every original packet it
 * receives. @p sent[end] counts the packets sent from each end.
 */
void
startTraffic(CrossLink &link, Machine &m0, Machine &m1,
             std::uint64_t *sent)
{
    Machine *machines[2] = {&m0, &m1};
    for (int end : {0, 1}) {
        NetPort &port = link.port(end);
        port.setReceiveHandler([&port, end, sent](NetPacket pkt) {
            if (pkt.id % 2 == 0) {
                ++sent[end];
                port.send(NetPacket{pkt.id + 1, pkt.bytes, 0});
            }
        });
        Rng rng(100 + static_cast<std::uint64_t>(end));
        for (std::uint64_t i = 0; i < 150; ++i) {
            const auto bytes =
                64 + static_cast<std::uint32_t>(rng.below(9000));
            machines[end]->events().schedule(
                nsec(static_cast<Ticks>(rng.below(400000))),
                [&port, end, sent, i, bytes] {
                    ++sent[end];
                    port.send(NetPacket{2 * i, bytes, 0});
                });
        }
    }
}

void
expectConserved(const CrossLink &link, const std::uint64_t *sent)
{
    EXPECT_EQ(sent[0], 300u); // 150 originals + 150 echoes
    EXPECT_EQ(sent[1], 300u);
    EXPECT_EQ(link.delivered(1), sent[0]);
    EXPECT_EQ(link.delivered(0), sent[1]);
    EXPECT_EQ(link.stagedCount(), 0u);
}

TEST(PacketConservation, SameMachineLink)
{
    for (const char *plan : {"", kDelayPlan}) {
        NestedSystem sys(VirtMode::Native);
        Machine &m = sys.machine();
        if (*plan)
            m.installFaultPlan(FaultPlan::parse(plan));
        CrossLink link(m, usec(2), 10e9);
        std::uint64_t sent[2] = {0, 0};
        startTraffic(link, m, m, sent);
        while (!m.events().empty())
            m.events().advanceTo(m.events().nextEventTime());
        expectConserved(link, sent);
        if (*plan) {
            EXPECT_GT(m.events().faultInjector()->injectedCount(
                          FaultSite::VirtioCompletionDelay),
                      0u);
        }
    }
}

TEST(PacketConservation, TwoMachineLink)
{
    for (const char *plan : {"", kDelayPlan}) {
        Cluster cluster(9);
        int a = cluster.addMachine("a", VirtMode::Native);
        int b = cluster.addMachine("b", VirtMode::Native);
        CrossLink &link = cluster.connect(a, b, usec(2), 10e9);
        if (*plan)
            cluster.installFaultPlan(FaultPlan::parse(plan));
        std::uint64_t sent[2] = {0, 0};
        startTraffic(link, cluster.machine(a), cluster.machine(b), sent);
        cluster.run(2);
        expectConserved(link, sent);
        if (*plan) {
            EXPECT_GT(cluster.machine(a).events().faultInjector()
                          ->injectedCount(
                              FaultSite::VirtioCompletionDelay),
                      0u);
        }
    }
}

// ---------------------------------------------------------------------
// Cluster engine: determinism across worker counts.

/** A three-machine raw ping-pong: one driver machine round-robins
 *  requests to two echo peers over links of *different* latencies, so
 *  epochs interleave staged traffic from both. Returns a fingerprint
 *  covering clocks, counters and epoch statistics. */
std::string
pingPongFingerprint(int jobs, const std::string &faults = "")
{
    Cluster cluster(17);
    int a = cluster.addMachine("driver", VirtMode::Native);
    int b = cluster.addMachine("echo1", VirtMode::Native);
    int c = cluster.addMachine("echo2", VirtMode::Native);
    CrossLink &l1 = cluster.connect(a, b, usec(3), 10e9);
    CrossLink &l2 = cluster.connect(a, c, usec(7), 10e9);

    NetserverPeer p1(cluster.machine(b), l1.port(1));
    NetserverPeer p2(cluster.machine(c), l2.port(1));

    if (!faults.empty())
        cluster.installFaultPlan(FaultPlan::parse(faults));

    std::uint64_t got1 = 0, got2 = 0;
    l1.port(0).setReceiveHandler([&](NetPacket) { ++got1; });
    l2.port(0).setReceiveHandler([&](NetPacket) { ++got2; });

    cluster.setDriver(a, [&](NestedSystem &sys) {
        Machine &m = sys.machine();
        for (int round = 0; round < 25; ++round) {
            std::uint64_t want1 = got1 + 1, want2 = got2 + 1;
            l1.port(0).send(NetPacket{
                static_cast<std::uint64_t>(round), 200,
                peerwire::rrRequest(100)});
            l2.port(0).send(NetPacket{
                static_cast<std::uint64_t>(round), 900,
                peerwire::rrRequest(60)});
            while (got1 < want1 || got2 < want2)
                m.idleUntil(m.now() + usec(50));
        }
    });

    ClusterStats stats = cluster.run(jobs);

    std::ostringstream fp;
    fp << got1 << ":" << got2 << " epochs=" << stats.epochs
       << " steps=" << stats.steps << " merged=" << stats.merged;
    for (int i = 0; i < cluster.size(); ++i)
        fp << " t" << i << "=" << cluster.machine(i).now();
    fp << " d1=" << l1.delivered(0) << "," << l1.delivered(1)
       << " d2=" << l2.delivered(0) << "," << l2.delivered(1);
    return fp.str();
}

TEST(Cluster, PingPongByteIdenticalAcrossWorkerCounts)
{
    const std::string seq = pingPongFingerprint(1);
    EXPECT_NE(seq.find("epochs="), std::string::npos);
    EXPECT_EQ(seq, pingPongFingerprint(2));
    EXPECT_EQ(seq, pingPongFingerprint(3));
    EXPECT_EQ(seq, pingPongFingerprint(8));
}

TEST(Cluster, FaultInjectionStaysDeterministicThroughClusterPath)
{
    const std::string spec =
        "virtio.completion.delay@p0.3,d40us;ipi.delay@p0.1,d3us";
    const std::string seq = pingPongFingerprint(1, spec);
    EXPECT_EQ(seq, pingPongFingerprint(3, spec));
    // The injected delays must actually change the simulation.
    EXPECT_NE(seq, pingPongFingerprint(1));
}

/** The full nested stack through the cluster: a virtualized client
 *  machine running netperf RR against a bare-metal NetserverPeer. */
std::string
nestedRrFingerprint(int jobs, VirtMode mode)
{
    Cluster cluster(5);
    int c = cluster.addMachine("client", mode);
    int p = cluster.addMachine("peer", VirtMode::Native);
    CrossLink &link = cluster.connect(
        c, p, cluster.machine(c).costs().wireLatency,
        cluster.machine(c).costs().linkBitsPerSec);

    VirtioNetStack net(cluster.system(c).stack(), link.port(0));
    NetserverPeer peer(cluster.machine(p), link.port(1));
    Netperf netperf(cluster.system(c).stack(), net);

    NetperfRrResult rr;
    cluster.setDriver(c, [&](NestedSystem &) {
        rr = netperf.runRr(1, 1, 15);
    });
    ClusterStats stats = cluster.run(jobs);

    std::ostringstream fp;
    fp.precision(17);
    fp << rr.meanUsec << "/" << rr.p99Usec << "/" << rr.transactions
       << " epochs=" << stats.epochs << " merged=" << stats.merged
       << " t0=" << cluster.machine(0).now()
       << " t1=" << cluster.machine(1).now();
    return fp.str();
}

TEST(Cluster, NestedStackRrIdenticalAcrossWorkerCounts)
{
    for (VirtMode mode : {VirtMode::Nested, VirtMode::SwSvt}) {
        const std::string seq = nestedRrFingerprint(1, mode);
        EXPECT_EQ(seq, nestedRrFingerprint(2, mode)) << "mode "
            << virtModeName(mode);
    }
}

TEST(Cluster, FollowerOnlyClusterDrainsAndTerminates)
{
    // No drivers at all: machines just run their queued events; the
    // run ends when every queue is empty.
    Cluster cluster(3);
    int a = cluster.addMachine("a", VirtMode::Native);
    int b = cluster.addMachine("b", VirtMode::Native);
    CrossLink &link = cluster.connect(a, b, usec(1), 10e9);

    std::uint64_t got = 0;
    link.port(1).setReceiveHandler([&](NetPacket) { ++got; });
    cluster.machine(a).events().schedule(usec(10), [&] {
        link.port(0).send(NetPacket{1, 100, 0});
    });
    cluster.machine(b).events().schedule(usec(2), [] {});

    ClusterStats stats = cluster.run(2);
    EXPECT_EQ(got, 1u);
    EXPECT_GE(stats.merged, 1u);
    EXPECT_GT(cluster.machine(b).now(), usec(10));
}

TEST(Cluster, DriverErrorIsContainedAndRethrown)
{
    Cluster cluster(1);
    int a = cluster.addMachine("boom", VirtMode::Native);
    int b = cluster.addMachine("quiet", VirtMode::Native);
    cluster.connect(a, b, usec(1), 10e9);
    cluster.setDriver(a, [](NestedSystem &sys) {
        sys.machine().idleUntil(usec(5));
        throw SimError("deliberate driver failure");
    });
    cluster.setDriver(b, [](NestedSystem &sys) {
        sys.machine().idleUntil(msec(1));
    });
    EXPECT_THROW(
        {
            try {
                cluster.run(2);
            } catch (const SimError &e) {
                EXPECT_NE(std::string(e.what())
                              .find("deliberate driver failure"),
                          std::string::npos);
                throw;
            }
        },
        SimError);
}

TEST(Cluster, JobsOneIsSingleThreaded)
{
    Cluster cluster(1);
    int a = cluster.addMachine("a", VirtMode::Native);
    int b = cluster.addMachine("b", VirtMode::Native);
    cluster.connect(a, b, usec(1), 10e9);
    const std::thread::id caller = std::this_thread::get_id();
    int checks = 0;
    for (int id : {a, b}) {
        cluster.setDriver(id, [&](NestedSystem &sys) {
            // Setup code, then one check after every advance: each
            // advance parks the fiber at the other machine's horizon.
            EXPECT_EQ(std::this_thread::get_id(), caller);
            Machine &m = sys.machine();
            for (int i = 0; i < 10; ++i) {
                m.idleUntil(m.now() + usec(2));
                EXPECT_EQ(std::this_thread::get_id(), caller);
                ++checks;
            }
        });
    }
    const ClusterStats stats = cluster.run(1);
    EXPECT_EQ(checks, 20);
    EXPECT_GE(stats.epochs, 10u);
}

TEST(Cluster, DriverErrorUnwindsParkedFibers)
{
    for (int jobs : {1, 2}) {
        bool quietReturned = false;
        Ticks quietReached = 0;
        {
            Cluster cluster(1);
            int a = cluster.addMachine("boom", VirtMode::Native);
            int b = cluster.addMachine("quiet", VirtMode::Native);
            cluster.connect(a, b, usec(1), 10e9);
            cluster.setDriver(a, [](NestedSystem &sys) {
                sys.machine().idleUntil(usec(5));
                throw SimError("deliberate driver failure");
            });
            // Still parked mid-idle when "boom" fails at 5 us (1 ms
            // is ~1000 epochs away); the error path must release it
            // to run its tail.
            cluster.setDriver(b, [&](NestedSystem &sys) {
                Machine &m = sys.machine();
                while (m.now() < msec(1))
                    m.idleUntil(msec(1));
                quietReached = m.now();
                quietReturned = true;
            });
            try {
                cluster.run(jobs);
                ADD_FAILURE() << "run() did not rethrow, jobs " << jobs;
            } catch (const SimError &e) {
                EXPECT_NE(std::string(e.what()).find(
                              "boom: deliberate driver failure"),
                          std::string::npos);
            }
            // Leaving the scope destroys the Cluster: it asserts no
            // driver fiber is still live.
        }
        EXPECT_TRUE(quietReturned) << "jobs " << jobs;
        EXPECT_EQ(quietReached, msec(1)) << "jobs " << jobs;
    }
}

TEST(Cluster, DriverErrorOnAMemberThreadIsRethrown)
{
    // Four drivers on a star, four crew threads. A driver that lands
    // on the coordinator sleeps, so the members claim the epoch's
    // other steps; "boom" throws the first time a member runs it.
    constexpr int kMachines = 4;
    const std::thread::id coordinator = std::this_thread::get_id();
    std::atomic<bool> boomOnMember{false};
    std::vector<Ticks> reached(kMachines, 0);
    {
        Cluster cluster(1);
        for (int i = 0; i < kMachines; ++i)
            cluster.addMachine(i == kMachines - 1
                                   ? "boom"
                                   : "quiet" + std::to_string(i),
                               VirtMode::Native);
        for (int i = 1; i < kMachines; ++i)
            cluster.connect(0, i, usec(1), 10e9);
        for (int i = 0; i < kMachines; ++i) {
            const bool boom = i == kMachines - 1;
            cluster.setDriver(i, [&, i, boom](NestedSystem &sys) {
                Machine &m = sys.machine();
                while (m.now() < msec(1)) {
                    m.idleUntil(m.now() + usec(2));
                    if (std::this_thread::get_id() == coordinator) {
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(50));
                    } else if (boom) {
                        boomOnMember = true;
                        throw SimError("deliberate member failure");
                    }
                }
                reached[static_cast<std::size_t>(i)] = m.now();
            });
        }
        try {
            cluster.run(kMachines);
            ADD_FAILURE() << "run() did not rethrow";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "boom: deliberate member failure"),
                      std::string::npos);
        }
        // Destroying the Cluster asserts no driver fiber is live.
    }
    EXPECT_TRUE(boomOnMember.load());
    // The quiet drivers ran their tails to the end, wherever they were
    // parked last.
    for (int i = 0; i < kMachines - 1; ++i)
        EXPECT_EQ(reached[static_cast<std::size_t>(i)], msec(1))
            << "machine " << i;
}

TEST(Cluster, NonStdDriverExceptionIsContained)
{
    for (int jobs : {1, 2}) {
        Cluster cluster(1);
        int a = cluster.addMachine("odd", VirtMode::Native);
        int b = cluster.addMachine("peer", VirtMode::Native);
        cluster.connect(a, b, usec(1), 10e9);
        cluster.setDriver(a, [](NestedSystem &sys) {
            sys.machine().idleUntil(usec(3));
            throw 42;
        });
        try {
            cluster.run(jobs);
            ADD_FAILURE() << "run() did not rethrow, jobs " << jobs;
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("odd:"),
                      std::string::npos);
        }
    }
}

TEST(Cluster, RunIsOnceOnly)
{
    Cluster cluster(1);
    cluster.addMachine("solo", VirtMode::Native);
    cluster.run(1);
    EXPECT_THROW(cluster.run(1), PanicError);
}

} // namespace
} // namespace svtsim
