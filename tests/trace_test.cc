/**
 * @file
 * Trace subsystem tests: TraceSink mechanics (spans, bounded buffer,
 * exporters) and the time-conservation invariant over full nested
 * trap round trips, including the SW SVt ring exchange.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sim/log.h"
#include "sim/trace.h"
#include "system/nested_system.h"

namespace svtsim {
namespace {

// ------------------------------------------------------- sink mechanics

TEST(TraceSink, DisabledSinkRecordsNothing)
{
    EventQueue eq;
    TraceSink sink(eq);
    EXPECT_FALSE(sink.enabled());
    sink.instant(TraceCategory::Sim, "x");
    sink.counter("c", 1);
    auto h = sink.beginSpan(TraceCategory::Sim, "span");
    eq.advanceBy(nsec(10));
    sink.endSpan(h);
    sink.attribute(nsec(10));
    EXPECT_TRUE(sink.events().empty());
    EXPECT_EQ(sink.checkConservation().attributed, 0);
    EXPECT_EQ(sink.checkConservation().unattributed, 0);
}

TEST(TraceSink, SpansRecordStartAndDuration)
{
    EventQueue eq;
    TraceSink sink(eq);
    sink.setEnabled(true);
    eq.advanceBy(nsec(5));
    auto h = sink.beginSpan(TraceCategory::Vmx, "vmx.window");
    eq.advanceBy(nsec(20));
    sink.endSpan(h);
    ASSERT_EQ(sink.events().size(), 1u);
    const TraceEvent &ev = sink.events()[0];
    EXPECT_EQ(ev.phase, TraceEvent::Phase::Complete);
    EXPECT_EQ(ev.name, "vmx.window");
    EXPECT_EQ(ev.start, nsec(5));
    EXPECT_EQ(ev.duration, nsec(20));
}

TEST(TraceSink, OutOfOrderSpanClosePanics)
{
    EventQueue eq;
    TraceSink sink(eq);
    sink.setEnabled(true);
    auto outer = sink.beginSpan(TraceCategory::Sim, "outer");
    sink.beginSpan(TraceCategory::Sim, "inner");
    EXPECT_THROW(sink.endSpan(outer), PanicError);
}

TEST(TraceSink, BoundedBufferDropsAndCounts)
{
    EventQueue eq;
    TraceSink sink(eq, 4);
    sink.setEnabled(true);
    for (int i = 0; i < 10; ++i)
        sink.instant(TraceCategory::Sim, "e");
    EXPECT_EQ(sink.events().size(), 4u);
    EXPECT_EQ(sink.droppedEvents(), 6u);
    // Attribution stays exact regardless of event drops.
    auto h = sink.beginSpan(TraceCategory::Stage, "stage.x");
    sink.attribute(nsec(7));
    sink.endSpan(h);
    EXPECT_EQ(sink.stageSelfTotals().at("stage.x"), nsec(7));
}

TEST(TraceSink, ExclusiveAttributionChargesInnermostStage)
{
    EventQueue eq;
    TraceSink sink(eq);
    sink.setEnabled(true);
    auto outer = sink.beginSpan(TraceCategory::Stage, "stage.outer");
    sink.attribute(nsec(10));
    auto inner = sink.beginSpan(TraceCategory::Stage, "stage.inner");
    sink.attribute(nsec(3));
    // Non-stage spans are transparent to attribution.
    auto dev = sink.beginSpan(TraceCategory::Io, "virtqueue.op");
    sink.attribute(nsec(2));
    sink.endSpan(dev);
    sink.endSpan(inner);
    sink.endSpan(outer);
    sink.attribute(nsec(4));
    EXPECT_EQ(sink.stageSelfTotals().at("stage.outer"), nsec(10));
    EXPECT_EQ(sink.stageSelfTotals().at("stage.inner"), nsec(5));
    auto c = sink.checkConservation();
    EXPECT_EQ(c.attributed, nsec(15));
    EXPECT_EQ(c.unattributed, nsec(4));
}

TEST(TraceSink, ConservationSeparatesIdleAndUnattributed)
{
    EventQueue eq;
    Machine machine(MachineTopology{1, 1, 2});
    TraceSink sink(machine.events());
    machine.setTraceSink(&sink);
    sink.setEnabled(true);

    machine.consume(nsec(10)); // no open stage -> unattributed
    {
        TimeScope s(machine, ScopeId::StageL1Handler);
        machine.consume(nsec(30));
    }
    machine.idleUntil(machine.now() + nsec(60));

    auto c = sink.checkConservation();
    EXPECT_EQ(c.elapsed, nsec(100));
    EXPECT_EQ(c.attributed, nsec(30));
    EXPECT_EQ(c.idle, nsec(60));
    EXPECT_EQ(c.unattributed, nsec(10));
    EXPECT_TRUE(c.conserved());
    EXPECT_FALSE(c.fullyAttributed());
    machine.setTraceSink(nullptr);
}

// ------------------------------------------------------------ exporters

TEST(TraceSink, ChromeTraceExportShape)
{
    EventQueue eq;
    TraceSink sink(eq);
    sink.setEnabled(true);
    auto h = sink.beginSpan(TraceCategory::Stage, "stage.\"x\"\\y");
    eq.advanceBy(usec(1));
    sink.endSpan(h);
    sink.instant(TraceCategory::Irq, "irq.raise", 33);
    sink.counter("ring.depth", 2);

    std::ostringstream os;
    sink.writeChromeTrace(os);
    std::string json = os.str();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    // Names with quotes/backslashes are escaped.
    EXPECT_NE(json.find("stage.\\\"x\\\"\\\\y"), std::string::npos);
    EXPECT_EQ(json.find("stage.\"x\""), std::string::npos);
}

TEST(TraceSink, CsvSummarySumsToElapsed)
{
    EventQueue eq;
    Machine machine(MachineTopology{1, 1, 2});
    TraceSink sink(machine.events());
    machine.setTraceSink(&sink);
    sink.setEnabled(true);
    {
        TimeScope s(machine, ScopeId::StageL0Handler);
        machine.consume(nsec(40));
    }
    machine.consume(nsec(15));
    machine.idleUntil(machine.now() + nsec(45));

    std::ostringstream os;
    sink.writeCsvSummary(os);
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "stage,ticks,usec,percent");
    Ticks sum = 0, total = -1;
    while (std::getline(is, line)) {
        auto c1 = line.find(',');
        auto c2 = line.find(',', c1 + 1);
        std::string name = line.substr(0, c1);
        Ticks ticks = std::stoll(line.substr(c1 + 1, c2 - c1 - 1));
        if (name == "total")
            total = ticks;
        else
            sum += ticks;
    }
    EXPECT_EQ(total, nsec(100));
    EXPECT_EQ(sum, total);
    machine.setTraceSink(nullptr);
}

// ------------------------------- conservation over real nested rounds

/** Attach a sink to a built system, run @p rounds cpuid round trips
 *  with tracing live, and return the conservation snapshot. */
TraceSink::Conservation
cpuidConservation(NestedSystem &sys, TraceSink &sink, int rounds)
{
    sys.machine().setTraceSink(&sink);
    sys.api().cpuid(1); // warm up (EPT fills) outside the window
    sink.setEnabled(true);
    for (int i = 0; i < rounds; ++i)
        sys.api().cpuid(1);
    auto c = sink.checkConservation();
    sys.machine().setTraceSink(nullptr);
    return c;
}

TEST(TraceConservation, NestedCpuidRoundTripFullyAttributed)
{
    NestedSystem sys(VirtMode::Nested);
    TraceSink sink(sys.machine().events());
    auto c = cpuidConservation(sys, sink, 20);
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
    TraceSink sink(sys.machine().events());
    auto c = cpuidConservation(sys, sink, 20);
    EXPECT_TRUE(c.conserved());
    EXPECT_TRUE(c.fullyAttributed())
        << "unattributed=" << c.unattributed;
    // The exchange itself is visible: channel stage self-time covers
    // two wakes plus two full payload reads per round.
    const CostModel &costs = sys.machine().costs();
    Ticks per_round =
        2 * (costs.monitorSetup + costs.mwaitWakeSmt +
             costs.ringPayloadValue * ringPayloadValues);
    EXPECT_EQ(sink.stageSelfTotals().at("stage.channel"),
              20 * per_round);
}

TEST(TraceConservation, HwSvtCpuidRoundTripConserves)
{
    NestedSystem sys(VirtMode::HwSvt);
    TraceSink sink(sys.machine().events());
    auto c = cpuidConservation(sys, sink, 10);
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

} // namespace
} // namespace svtsim
