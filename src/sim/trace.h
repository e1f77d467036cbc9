/**
 * @file
 * Bounded trace-event recorder: "where did every individual
 * nanosecond of this run go, in order". It records:
 *
 *  - complete spans with a category and a name: Machine hands over
 *    each attribution scope (`stage.*`, `exit.*`) as it closes;
 *  - instant events (a VM entry, an SVt fetch retarget, a virtqueue
 *    kick);
 *  - counters (ring payload sizes, queue depths).
 *
 * The sink attributes no time. Machine's scope stack is the one span
 * stack, and Machine's ledger charges every consumed tick to the
 * innermost open `stage.*` scope while an enabled sink is attached;
 * Machine::conservation() checks that ledger against the ticks
 * elapsed since the sink's recording window opened (origin()).
 *
 * The event buffer is bounded: when full, new events are dropped and
 * counted (Machine's attribution totals are exact regardless of
 * drops). When the sink is disabled — the default — every entry point
 * is a single branch on a bool.
 */

#ifndef SVTSIM_SIM_TRACE_H
#define SVTSIM_SIM_TRACE_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/compiler.h"
#include "sim/event_queue.h"
#include "sim/ticks.h"

namespace svtsim {

/** Coarse event taxonomy; becomes the Chrome trace "cat" field. */
enum class TraceCategory : std::uint8_t
{
    Stage,   ///< Table 1 stage attribution scopes (`stage.*`).
    Exit,    ///< One nested trap round, named by exit reason.
    Vmx,     ///< VMX transitions: entry/exit/vmptrld.
    Vmcs,    ///< VMCS transforms and shadow accesses.
    Svt,     ///< SVt unit: trap/resume retargets, ctxtld/ctxtst.
    Channel, ///< SW SVt command rings and wake latencies.
    Irq,     ///< Interrupt raise/deliver paths.
    Io,      ///< Virtqueue kicks and completions.
    Sim,     ///< Everything else (workloads, harness).
};

const char *traceCategoryName(TraceCategory c);

/** One recorded event. */
struct TraceEvent
{
    enum class Phase : std::uint8_t
    {
        Complete, ///< A span: [start, start + duration).
        Instant,  ///< A point event.
        Counter,  ///< A named value sampled at `start`.
    };

    Phase phase = Phase::Instant;
    TraceCategory category = TraceCategory::Sim;
    std::string name;
    Ticks start = 0;
    Ticks duration = 0;
    std::int64_t value = 0;
};

/**
 * Bounded event buffer.
 *
 * Non-owning observers (Machine, the instrumented devices) reach the
 * sink through EventQueue::traceSink(); whoever created the sink
 * (tests, a bench's ScopedTrace) owns it and must detach before
 * destroying it.
 */
class TraceSink
{
  public:
    /** Default event-buffer capacity (events beyond it are dropped
     *  and counted). */
    static constexpr std::size_t defaultCapacity = 1 << 20;

    explicit TraceSink(EventQueue &eq,
                       std::size_t capacity = defaultCapacity);

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** Tracing is off until enabled; disabled calls are one branch.
     *  Enabling opens a new recording window: it drops all events
     *  and moves origin() to the queue's current time. */
    bool enabled() const { return enabled_; }
    void setEnabled(bool on);

    /** Tick at which the current recording window opened. */
    Ticks origin() const { return origin_; }

    // -- Event recording -------------------------------------------------
    /** Record a finished span [start, start + duration). */
    void complete(TraceCategory category, const char *name, Ticks start,
                  Ticks duration);
    void instant(TraceCategory category, std::string name,
                 std::int64_t value = 0);
    void counter(std::string name, std::int64_t value);

    // -- Introspection ----------------------------------------------------
    const std::vector<TraceEvent> &events() const { return events_; }
    std::uint64_t droppedEvents() const { return dropped_; }

    // -- Exporters --------------------------------------------------------
    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    void writeChromeTrace(std::ostream &os) const;

  private:
    void push(TraceEvent ev);

    EventQueue &eq_;
    std::size_t capacity_;
    bool enabled_ = false;
    Ticks origin_ = 0;

    std::vector<TraceEvent> events_;
    std::uint64_t dropped_ = 0;
};

/** Record an instant event if @p sink_expr yields an enabled sink. */
#define SVTSIM_TRACE_INSTANT(sink_expr, category, name)                \
    do {                                                               \
        ::svtsim::TraceSink *sink_ = (sink_expr);                      \
        if (SVTSIM_UNLIKELY(sink_ && sink_->enabled()))                \
            sink_->instant((category), (name));                        \
    } while (0)

} // namespace svtsim

#endif // SVTSIM_SIM_TRACE_H
