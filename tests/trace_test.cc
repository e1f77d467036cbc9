/**
 * @file
 * Trace subsystem tests: span recording and exclusive attribution
 * through Machine scopes, the bounded event buffer, the exporters, and
 * the time-conservation invariant over full nested trap round trips
 * (including the SW SVt ring exchange) and over a two-machine cluster.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/log.h"
#include "sim/trace.h"
#include "system/cluster_spec.h"
#include "system/nested_system.h"
#include "system/trace_session.h"
#include "workloads/remote_peer.h"

namespace svtsim {
namespace {

/** A small machine with a sink attached (detached on destruction). */
struct Traced
{
    explicit Traced(bool enable = true,
                    std::size_t capacity = TraceSink::defaultCapacity)
        : machine(MachineTopology{1, 1, 2}),
          sink(machine.events(), capacity)
    {
        machine.setTraceSink(&sink);
        sink.setEnabled(enable);
    }
    ~Traced() { machine.setTraceSink(nullptr); }

    Machine machine;
    TraceSink sink;
};

// ------------------------------------------------ spans and attribution

TEST(TraceSink, DisabledSinkRecordsNothing)
{
    Traced t(false);
    EXPECT_FALSE(t.sink.enabled());
    t.sink.instant(TraceCategory::Sim, "x");
    t.sink.counter("c", 1);
    {
        TimeScope s(t.machine, ScopeId::StageL2);
        t.machine.consume(nsec(10));
    }
    EXPECT_TRUE(t.sink.events().empty());
    auto c = t.machine.conservation();
    EXPECT_EQ(c.elapsed, 0);
    EXPECT_EQ(c.attributed, 0);
    EXPECT_EQ(c.unattributed, 0);
    EXPECT_EQ(t.machine.selfTicks(ScopeId::StageL2), 0);
}

TEST(TraceSink, SpansRecordStartAndDuration)
{
    Traced t;
    t.machine.consume(nsec(5));
    {
        TimeScope s(t.machine, exitScope(ExitReason::Cpuid));
        t.machine.consume(nsec(20));
    }
    ASSERT_EQ(t.sink.events().size(), 1u);
    const TraceEvent &ev = t.sink.events()[0];
    EXPECT_EQ(ev.phase, TraceEvent::Phase::Complete);
    EXPECT_EQ(ev.category, TraceCategory::Exit);
    EXPECT_EQ(ev.name, "exit.CPUID");
    EXPECT_EQ(ev.start, nsec(5));
    EXPECT_EQ(ev.duration, nsec(20));
}

TEST(TraceSink, ScopePushedWhileDisabledEmitsNoSpan)
{
    Traced t(false);
    {
        TimeScope s(t.machine, ScopeId::StageL1Handler);
        t.sink.setEnabled(true);
        t.machine.consume(nsec(8));
    }
    EXPECT_TRUE(t.sink.events().empty());
    // Machine's scope stack is the one span stack: the stage was open
    // when the window opened, so the ledger still charges it.
    EXPECT_EQ(t.machine.selfTicks(ScopeId::StageL1Handler), nsec(8));
    EXPECT_TRUE(t.machine.conservation().fullyAttributed());
}

TEST(TraceSink, BoundedBufferDropsAndCounts)
{
    Traced t(true, 4);
    for (int i = 0; i < 10; ++i)
        t.sink.instant(TraceCategory::Sim, "e");
    EXPECT_EQ(t.sink.events().size(), 4u);
    EXPECT_EQ(t.sink.droppedEvents(), 6u);
    // Attribution stays exact regardless of event drops.
    {
        TimeScope s(t.machine, ScopeId::StageL0Handler);
        t.machine.consume(nsec(7));
    }
    EXPECT_EQ(t.sink.droppedEvents(), 7u);
    EXPECT_EQ(t.machine.selfTicks(ScopeId::StageL0Handler), nsec(7));
    EXPECT_TRUE(t.machine.conservation().fullyAttributed());
}

TEST(TraceSink, ExclusiveAttributionChargesInnermostStage)
{
    Traced t;
    Machine &m = t.machine;
    {
        TimeScope outer(m, ScopeId::StageL0Handler);
        m.consume(nsec(10));
        {
            TimeScope inner(m, ScopeId::StageL1Handler);
            m.consume(nsec(3));
            // exit.* scopes are transparent to attribution.
            TimeScope exit(m, exitScope(ExitReason::Cpuid));
            m.consume(nsec(2));
        }
    }
    m.consume(nsec(4));
    EXPECT_EQ(m.selfTicks(ScopeId::StageL0Handler), nsec(10));
    EXPECT_EQ(m.selfTicks(ScopeId::StageL1Handler), nsec(5));
    EXPECT_EQ(m.selfTicks(exitScope(ExitReason::Cpuid)), 0);
    // The inclusive buckets still see every open scope.
    EXPECT_EQ(m.scopeTotal(ScopeId::StageL0Handler), nsec(15));
    auto c = m.conservation();
    EXPECT_EQ(c.attributed, nsec(15));
    EXPECT_EQ(c.unattributed, nsec(4));
    EXPECT_TRUE(c.conserved());
}

TEST(TraceSink, ConservationSeparatesIdleAndUnattributed)
{
    Traced t;
    Machine &m = t.machine;
    m.consume(nsec(10)); // no open stage -> unattributed
    {
        TimeScope s(m, ScopeId::StageL1Handler);
        m.consume(nsec(30));
    }
    m.idleUntil(m.now() + nsec(60));

    auto c = m.conservation();
    EXPECT_EQ(c.elapsed, nsec(100));
    EXPECT_EQ(c.attributed, nsec(30));
    EXPECT_EQ(c.idle, nsec(60));
    EXPECT_EQ(c.unattributed, nsec(10));
    EXPECT_TRUE(c.conserved());
    EXPECT_FALSE(c.fullyAttributed());
}

TEST(TraceSink, ReEnablingOpensAFreshWindow)
{
    Traced t;
    Machine &m = t.machine;
    {
        TimeScope s(m, ScopeId::StageL2);
        m.consume(nsec(10));
    }
    t.sink.setEnabled(false);
    m.consume(nsec(5)); // no enabled sink: nothing accrues
    t.sink.setEnabled(true);
    EXPECT_EQ(m.conservation().elapsed, 0);
    EXPECT_EQ(m.conservation().attributed, 0);
    {
        TimeScope s(m, ScopeId::StageL2);
        m.consume(nsec(3));
    }
    EXPECT_EQ(m.selfTicks(ScopeId::StageL2), nsec(3));
    auto c = m.conservation();
    EXPECT_EQ(c.elapsed, nsec(3));
    EXPECT_TRUE(c.fullyAttributed());
}

// ------------------------------------------------------------ exporters

TEST(TraceSink, ChromeTraceExportShape)
{
    Traced t;
    {
        TimeScope s(t.machine, ScopeId::StageL2);
        t.machine.consume(usec(1));
    }
    t.sink.instant(TraceCategory::Irq, "irq.\"x\"\\y", 33);
    t.sink.counter("ring.depth", 2);

    std::ostringstream os;
    t.sink.writeChromeTrace(os);
    std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    // Names with quotes/backslashes are escaped.
    EXPECT_NE(json.find("irq.\\\"x\\\"\\\\y"), std::string::npos);
    EXPECT_EQ(json.find("irq.\"x\""), std::string::npos);
}

TEST(TraceSink, CsvSummarySumsToElapsed)
{
    Machine machine(MachineTopology{1, 1, 2});
    const std::string path = testing::TempDir() + "trace_csv_summary.json";
    std::string report;
    {
        ScopedTrace trace(machine, path);
        {
            TimeScope s(machine, ScopeId::StageL0Handler);
            machine.consume(nsec(40));
        }
        machine.consume(nsec(15));
        machine.idleUntil(machine.now() + nsec(45));
        report = trace.finish();
    }
    EXPECT_EQ(report.substr(report.rfind(' ') + 1), "conserved");

    std::ifstream is(path + ".csv");
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "stage,ticks,usec,percent");
    Ticks sum = 0, total = -1, l0 = -1;
    while (std::getline(is, line)) {
        auto c1 = line.find(',');
        auto c2 = line.find(',', c1 + 1);
        std::string name = line.substr(0, c1);
        Ticks ticks = std::stoll(line.substr(c1 + 1, c2 - c1 - 1));
        if (name == "total")
            total = ticks;
        else
            sum += ticks;
        if (name == "stage.l0_handler")
            l0 = ticks;
    }
    EXPECT_EQ(l0, nsec(40));
    EXPECT_EQ(total, nsec(100));
    EXPECT_EQ(sum, total);
}

// ------------------------------- conservation over real nested rounds

/** Attach a sink to a built system, run @p rounds cpuid round trips
 *  with tracing live, and return the conservation snapshot (and the
 *  stage.channel self time through @p channel). */
Machine::Conservation
cpuidConservation(NestedSystem &sys, int rounds, Ticks *channel = nullptr)
{
    Machine &m = sys.machine();
    TraceSink sink(m.events());
    m.setTraceSink(&sink);
    sys.api().cpuid(1); // warm up (EPT fills) outside the window
    sink.setEnabled(true);
    for (int i = 0; i < rounds; ++i)
        sys.api().cpuid(1);
    auto c = m.conservation();
    if (channel)
        *channel = m.selfTicks(ScopeId::StageChannel);
    m.setTraceSink(nullptr);
    return c;
}

TEST(TraceConservation, NestedCpuidRoundTripFullyAttributed)
{
    NestedSystem sys(VirtMode::Nested);
    auto c = cpuidConservation(sys, 20);
    EXPECT_GT(c.elapsed, 0);
    EXPECT_TRUE(c.conserved())
        << "attributed=" << c.attributed << " idle=" << c.idle
        << " unattributed=" << c.unattributed
        << " elapsed=" << c.elapsed;
    // Every consumed tick of a nested trap lands in a Table 1 stage.
    EXPECT_TRUE(c.fullyAttributed())
        << "unattributed=" << c.unattributed;
}

TEST(TraceConservation, SwSvtRingExchangeFullyAttributed)
{
    // The headline regression: the SW SVt ring pops used to run
    // outside any stage scope, so their (previously under-charged)
    // payload-read time was invisible to the stage accounting. With
    // the pops inside stage.channel, a full ring exchange conserves
    // and fully attributes.
    NestedSystem sys(VirtMode::SwSvt);
    Ticks channel = 0;
    auto c = cpuidConservation(sys, 20, &channel);
    EXPECT_TRUE(c.conserved());
    EXPECT_TRUE(c.fullyAttributed())
        << "unattributed=" << c.unattributed;
    // The exchange itself is visible: channel stage self-time covers
    // two wakes plus two full payload reads per round.
    const CostModel &costs = sys.machine().costs();
    Ticks per_round =
        2 * (costs.monitorSetup + costs.mwaitWakeSmt +
             costs.ringPayloadValue * ringPayloadValues);
    EXPECT_EQ(channel, 20 * per_round);
}

TEST(TraceConservation, HwSvtCpuidRoundTripConserves)
{
    NestedSystem sys(VirtMode::HwSvt);
    auto c = cpuidConservation(sys, 10);
    EXPECT_TRUE(c.conserved());
    EXPECT_TRUE(c.fullyAttributed())
        << "unattributed=" << c.unattributed;
}

TEST(TraceConservation, InstrumentationEmitsExpectedEvents)
{
    NestedSystem sys(VirtMode::SwSvt);
    TraceSink sink(sys.machine().events());
    sys.machine().setTraceSink(&sink);
    sys.api().cpuid(1);
    sink.setEnabled(true);
    sys.api().cpuid(1);
    sys.machine().setTraceSink(nullptr);

    bool saw_channel_stage = false, saw_post = false, saw_pop = false;
    for (const auto &ev : sink.events()) {
        if (ev.name == "stage.channel" &&
            ev.phase == TraceEvent::Phase::Complete) {
            saw_channel_stage = true;
        }
        if (ev.name == "ring.post.vm_trap")
            saw_post = true;
        if (ev.name == "ring.pop")
            saw_pop = true;
    }
    EXPECT_TRUE(saw_channel_stage);
    EXPECT_TRUE(saw_post);
    EXPECT_TRUE(saw_pop);
}

// --------------------------------- conservation on cluster machines

/**
 * A nested memcached server (a driver) and a native client that is a
 * pure event follower: its requests are scheduled events and its
 * responses arrive through the link, so it never consumes. Every
 * machine conserves at any cluster-jobs count, and the follower's
 * whole elapsed time is the idle its horizon drains were charged.
 */
TEST(TraceConservation, ClusterFollowerDrainsAreIdle)
{
    for (int jobs : {1, 2}) {
        Cluster b = ClusterSpec()
                             .machine("server", VirtMode::Nested)
                             .machine("client", VirtMode::Native)
                             .link("server", "client")
                             .realize(7);
        VirtioNetStack net(b.stack("server"), b.port("server", "client"));
        MemcachedServer server(b.stack("server"), net);

        Machine &client = b.machine("client");
        NetPort &port = b.port("client", "server");
        EtcWorkload etc;
        Rng rng(3);
        std::uint64_t answered = 0;
        port.setReceiveHandler([&](NetPacket) { ++answered; });
        for (std::uint64_t i = 1; i <= 40; ++i) {
            client.events().schedule(
                usec(50) * static_cast<Ticks>(i),
                [&, i] { port.send(etc.sampleRequest(rng, i)); },
                "test-request");
        }

        std::vector<std::unique_ptr<TraceSink>> sinks;
        for (int i = 0; i < b.size(); ++i) {
            Machine &m = b.machine(i);
            sinks.push_back(std::make_unique<TraceSink>(m.events()));
            m.setTraceSink(sinks.back().get());
            sinks.back()->setEnabled(true);
        }
        b.driver("server",
                 [&](NestedSystem &) { server.serveUntil(msec(3)); });
        b.run(jobs);

        EXPECT_GT(answered, 0u) << "jobs=" << jobs;
        for (int i = 0; i < b.size(); ++i) {
            Machine &m = b.machine(i);
            auto c = m.conservation();
            EXPECT_GT(c.elapsed, 0);
            EXPECT_TRUE(c.conserved())
                << "machine " << i << " jobs=" << jobs
                << " attributed=" << c.attributed << " idle=" << c.idle
                << " unattributed=" << c.unattributed
                << " elapsed=" << c.elapsed;
            if (&m == &client) {
                EXPECT_EQ(c.idle, c.elapsed) << "jobs=" << jobs;
            }
            m.setTraceSink(nullptr);
        }
    }
}

} // namespace
} // namespace svtsim
