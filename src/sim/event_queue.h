/**
 * @file
 * Discrete-event core: the EventQueue behind the synchronous
 * execution model.
 *
 * The simulator mixes two styles:
 *
 *  - Asynchronous entities (devices, timers, network links) schedule
 *    zero-duration callbacks on the EventQueue. Handlers must not
 *    consume time; they flip state (assert an IRQ line, complete a
 *    descriptor) that synchronous code observes later.
 *
 *  - Synchronous code (guest programs, hypervisor exit handlers)
 *    consumes modeled time via Machine::consume(). Consuming time runs
 *    every event whose timestamp is passed, in order, so device
 *    completions and interrupts appear at the right simulated instant.
 *
 * Implementation: one arena of event records, threaded on one of two
 * stores by size. Each Machine owns a queue, and the benches keep a
 * mean of 0.6-1.7 events pending per queue and at most 17 (fig7_io:
 * 10.7 and 120; DESIGN.md "Event core" has the table). While a queue
 * holds at most listLimit (32) events, its records sit on one
 * intrusive list sorted by (tick, sequence): a schedule walks back
 * from the tail (about one step at those depths), the next event is
 * the head and firing pops it. A schedule that would make listLimit + 1
 * moves every record onto a hierarchical timing wheel — numLevels
 * levels of numSlots slots, level k bucketing events by byte k of
 * their absolute timestamp, O(1) schedule, deschedule and fire plus at
 * most numLevels cascades over an event's lifetime — and once fewer
 * than wheelFloor (8) remain they move back onto the list. Both
 * stores unlink a cancelled record eagerly, so empty()/size()/
 * nextEventTime() always agree, and the steady-state schedule->fire
 * cycle performs zero heap allocations (closures live inline in the
 * record via EventClosure). One private walk (nextDue) finds the next
 * due tick on either store for every way of moving time forward.
 *
 * Determinism contract (unchanged): events at the same tick run in
 * scheduling order. The list is sorted by (tick, seq); on the wheel,
 * level-0 slots are exact-tick buckets and every insertion — direct,
 * via cascade or in list order from the list — appends, so slot order
 * is seq order; see DESIGN.md "Event core" for the argument.
 */

#ifndef SVTSIM_SIM_EVENT_QUEUE_H
#define SVTSIM_SIM_EVENT_QUEUE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/closure.h"
#include "sim/compiler.h"
#include "sim/log.h"
#include "sim/ticks.h"

namespace svtsim {

class TraceSink;
class FaultInjector;

/**
 * Handle used to cancel a scheduled event. Encodes the record's arena
 * index plus a generation stamp, so handles to fired or cancelled
 * events go stale instead of aliasing the slot's next tenant.
 */
using EventId = std::uint64_t;

/**
 * Conservative-execution hook: bounds how far an EventQueue may
 * advance before synchronizing with an external coordinator (the
 * parallel cluster engine's epoch barrier).
 *
 * While a gate is installed the queue owns simulated time strictly
 * below its current horizon: it may fire events with timestamp
 * < horizon and move now() up to (but never onto) the horizon. An
 * advance that needs to cross the horizon drains everything below it
 * and then calls awaitHorizon(), which suspends the advancing code at
 * the cluster barrier until a larger horizon is granted (the cluster
 * engine's gate switches the driver's fiber back to its resumer).
 */
class AdvanceGate
{
  public:
    virtual ~AdvanceGate() = default;

    /**
     * Called by the advancing code once everything below the current
     * horizon has fired and the advance wants to continue to
     * @p target. Returns only once more time is granted.
     *
     * @return The new exclusive horizon; must be strictly greater
     *         than the previous one (maxTick un-gates the queue).
     */
    virtual Ticks awaitHorizon(Ticks target) = 0;
};

/** Invalid/none event handle. */
constexpr EventId invalidEventId = 0;

/**
 * Time-ordered queue of zero-duration callbacks.
 *
 * Events at the same tick run in scheduling order (FIFO), which keeps
 * runs deterministic.
 *
 * Cancellation is eager end to end: deschedule() unlinks the record
 * from the list or its wheel slot and releases the closure — and
 * anything it captured — immediately, so a schedule/cancel churn loop
 * (a re-armed watchdog) leaves no debris behind.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current simulated time. */
    Ticks now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when. @p label is
     * kept only for the schedule-in-the-past panic message.
     *
     * @return A handle that can be passed to deschedule().
     * @pre when >= now().
     */
    EventId schedule(Ticks when, EventClosure fn,
                     std::string_view label = {});

    /**
     * Schedule @p fn to run @p delta ticks from now. A delta that
     * would overflow past maxTick saturates at maxTick (an "infinite
     * timeout" stays pending forever instead of tripping the
     * schedule-in-the-past panic with a wrapped timestamp).
     */
    EventId scheduleIn(Ticks delta, EventClosure fn,
                       std::string_view label = {});

    /**
     * Cancel a pending event, unlinking it and releasing its closure
     * immediately. Cancelling an already-fired or unknown handle is a
     * no-op (matches typical timer APIs).
     *
     * @return True if the event was pending and is now cancelled.
     */
    bool deschedule(EventId id);

    /** Whether any events are pending. */
    bool empty() const { return liveCount_ == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return liveCount_; }

    /** Time of the next pending event, or maxTick if none. */
    Ticks nextEventTime() const;

    /**
     * Advance time to @p when, running every event with timestamp
     * <= @p when in order. Each event runs with now() set to its own
     * timestamp; afterwards now() == when.
     *
     * A target below both the due bound (no pending event is earlier)
     * and the horizon crosses nothing: only now() moves, and the
     * wheel catches up at the next walk.
     *
     * @pre when >= now().
     */
    SVTSIM_ALWAYS_INLINE void
    advanceTo(Ticks when)
    {
        if (SVTSIM_LIKELY(when >= now_ && when < dueBound_ &&
                          when < horizon_)) {
            now_ = when;
            return;
        }
        advanceToSlow(when);
    }

    /**
     * Advance time by @p delta ticks (see advanceTo()). Saturates at
     * maxTick instead of overflowing.
     */
    SVTSIM_ALWAYS_INLINE void
    advanceBy(Ticks delta)
    {
        simAssert(delta >= 0, "EventQueue::advanceBy negative delta");
        advanceTo(delta >= maxTick - now_ ? maxTick : now_ + delta);
    }

    /**
     * Run every event with timestamp < @p limit, in order. Unlike
     * advanceTo(), time never moves onto @p limit itself — this is
     * the cluster epoch drain ("fire everything this machine owns below
     * the horizon").
     *
     * now() ends at the last fired event's timestamp, or later at a
     * window base below @p limit: when the next pending tick t is at
     * or past @p limit, now() moves up to the largest value of t with
     * its low 8k bits cleared (k = 1..7) that is below @p limit, as
     * the wheel's cascades carry it (one event at 300 with now() == 0:
     * runUntilTick(280) leaves now() at 256).
     *
     * @return Number of events fired.
     */
    std::uint64_t runUntilTick(Ticks limit);

    /**
     * Advance toward @p when for an idle wait (Machine::idleUntil).
     * Ungated this is exactly advanceTo(when). Under an AdvanceGate
     * it may instead return early — after one more horizon window has
     * been granted and drained — with now() < when, so a halt/idle
     * loop re-evaluates its wakeup condition against packets merged
     * in at the epoch barrier rather than sleeping blindly through
     * them to a watchdog deadline.
     */
    void idleTo(Ticks when);

    /**
     * Install (or clear, gate == nullptr) the conservative-execution
     * gate. @p horizon is the initial exclusive bound on event
     * execution; clearing the gate resets the horizon to maxTick.
     */
    void
    setAdvanceGate(AdvanceGate *gate, Ticks horizon)
    {
        gate_ = gate;
        horizon_ = gate ? horizon : maxTick;
    }

    /** Current exclusive advance horizon (maxTick when un-gated). */
    Ticks horizon() const { return horizon_; }

    /** Total number of events executed so far (for stats/tests). */
    std::uint64_t executedCount() const { return executed_; }

    /**
     * Optional trace sink, reachable from anything that holds the
     * queue (Machine, devices). Not owned; whoever attaches it must
     * detach (set nullptr) before destroying it. TraceSink is a
     * concrete (non-virtual) class, so the disabled configuration
     * costs exactly one pointer test at each hook site.
     */
    SVTSIM_ALWAYS_INLINE TraceSink *traceSink() const
    {
        return traceSink_;
    }
    void setTraceSink(TraceSink *sink) { traceSink_ = sink; }

    /**
     * Optional fault injector, published here (like the trace sink)
     * so hook points that only hold the queue — LAPICs, rings,
     * devices — can reach it. Not owned; null means no faults.
     */
    SVTSIM_ALWAYS_INLINE FaultInjector *faultInjector() const
    {
        return faultInjector_;
    }
    void setFaultInjector(FaultInjector *inj) { faultInjector_ = inj; }

    /**
     * Whether @p id refers to a still-pending event. Lets owners of
     * tracked event handles prune fired ones without descheduling.
     */
    bool pending(EventId id) const { return lookup(id) != nullptr; }

    /**
     * Whether the pending records sit on the wheel rather than the
     * sorted list (for tests).
     */
    bool onWheel() const { return onWheel_; }

    // -- List bound and wheel geometry (public for tests and sim_speed) --
    /** Most records the sorted list holds; one more moves them all
     *  onto the wheel. */
    static constexpr std::size_t listLimit = 32;
    /** log2 of slots per level. */
    static constexpr int slotBits = 8;
    /** Slots per wheel level. */
    static constexpr int numSlots = 1 << slotBits;
    /**
     * Wheel levels; level k spans ticks [2^(8k), 2^(8(k+1))). Eight
     * levels cover all 64 bits of a Ticks value.
     */
    static constexpr int numLevels = 8;

  private:
    /** Fewer records than this on the wheel move back onto the list;
     *  the gap to listLimit keeps a population near the bound from
     *  moving at every schedule. */
    static constexpr std::size_t wheelFloor = 8;
    static constexpr std::uint32_t nil = 0xffffffffu;
    static constexpr int slotMask = numSlots - 1;
    /** Record::level value for free arena slots. */
    static constexpr std::uint8_t levelFree = 0xff;
    /** Record::level value for records on the sorted list. */
    static constexpr std::uint8_t levelList = 0xfe;
    static constexpr std::uint32_t chunkSize = 256;

    /**
     * One event. Lives in the arena; linked into the sorted list or
     * exactly one wheel slot (via prev/next) while pending.
     */
    struct Record
    {
        EventClosure fn;
        Ticks when = 0;
        std::uint64_t seq = 0;
        std::uint32_t prev = nil;
        std::uint32_t next = nil;
        /** Bumped on every free; stale EventIds fail the gen check. */
        std::uint32_t gen = 0;
        std::uint8_t level = levelFree;
        std::uint8_t slot = 0;
    };

    struct Slot
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    SVTSIM_ALWAYS_INLINE Record &
    recordAt(std::uint32_t idx)
    {
        return chunks_[idx >> 8][idx & (chunkSize - 1)];
    }
    SVTSIM_ALWAYS_INLINE const Record &
    recordAt(std::uint32_t idx) const
    {
        return chunks_[idx >> 8][idx & (chunkSize - 1)];
    }

    static EventId
    makeId(std::uint32_t idx, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) |
               (static_cast<EventId>(idx) + 1);
    }

    /** Resolve @p id to its live record, or null if fired/stale. */
    const Record *lookup(EventId id) const;

    std::uint32_t allocRecord();
    void freeRecord(std::uint32_t idx, Record &rec);
    /** Unlink and free a pending record; may move the rest onto the
     *  list. */
    void retire(std::uint32_t idx, Record &rec);

    /** Insert a record into the list by (tick, seq), walking back
     *  from the tail. */
    void listInsert(std::uint32_t idx, Record &rec);
    /** Move every list record onto the wheel, bucketed against now_. */
    void moveToWheel();
    /** Move every wheel record onto the list. */
    void moveToList();

    /** Bucket a record by when vs wheelNow_ and append to its slot. */
    void placeRecord(std::uint32_t idx, Record &rec);
    void linkTail(int level, int slot, std::uint32_t idx, Record &rec);
    /** Unlink a pending record from the list or its wheel slot. */
    void unlink(Record &rec);

    void markOccupied(int level, int slot);
    void clearOccupied(int level, int slot);
    /** First occupied slot of @p level, or -1. */
    int firstOccupied(int level) const;
    /** Lowest level with any occupied slot, or -1 (wheel empty). */
    int lowestOccupiedLevel() const;

    /** Absolute time of level-0 slot @p slot in the wheel's window. */
    Ticks level0Time(int slot) const
    {
        return (wheelNow_ & ~static_cast<Ticks>(slotMask)) | slot;
    }
    /**
     * Window base of level-k slot @p slot (k >= 1) in the current
     * window of level k + 1; the top level's window is all of time.
     */
    Ticks slotBase(int level, int slot) const;

    /**
     * Jump wheelNow_ to @p t, cascading the wheel slots that t's
     * windows enter. Leaves now_ alone.
     * @pre no live event has a timestamp < t.
     */
    void moveTimeTo(Ticks t);
    /** Re-bucket every record in non-empty level-k slot @p slot vs
     *  the new wheelNow_. */
    void cascade(int level, int slot);

    /**
     * The one "find the next due tick" walk. On the list it reads the
     * head; on the wheel it cascades until the earliest pending event
     * sits in a level-0 slot. Either way it stores that tick in @p t.
     * Cascading moves the wheel only up to window bases at or before
     * that tick, and never moves now_. Every return refreshes
     * dueBound_.
     *
     * @return False, leaving @p t unset, if no event is due at or
     *         before @p last.
     */
    SVTSIM_ALWAYS_INLINE bool nextDue(Ticks last, Ticks &t);

    /** Set now_ to @p t (a tick nextDue() found due) and fire its
     *  events in seq order. */
    void fireTick(Ticks t);
    /** Fire the wheel's events at tick t (== now_) in seq order. */
    void fireCurrentSlot(Ticks t);
    /** Fire pending record @p idx. */
    SVTSIM_ALWAYS_INLINE void fireRecord(std::uint32_t idx);

    /** advanceTo() past the fast path: the past-time panic, then
     *  the gate handoff or the plain loop. */
    void advanceToSlow(Ticks when);
    /** advanceTo() body without the horizon check. */
    void advanceUngated(Ticks when);
    /**
     * Slow path for an advance whose target crosses the horizon:
     * drain below it, block at the gate for more time, repeat. An
     * idle advance returns after the first re-grant (see idleTo()).
     */
    void gatedAdvance(Ticks when, bool idle);

    // -- Arena -------------------------------------------------------------
    std::vector<std::unique_ptr<Record[]>> chunks_;
    std::uint32_t freeHead_ = nil;
    std::uint32_t allocated_ = 0;

    // -- Sorted list -------------------------------------------------------
    /** Head and tail of the (tick, seq)-sorted list. */
    Slot list_;
    /** Whether the pending records sit on the wheel. */
    bool onWheel_ = false;

    // -- Wheel -------------------------------------------------------------
    Slot slots_[numLevels][numSlots];
    std::uint64_t occupied_[numLevels][numSlots / 64] = {};
    /** Bit k set iff level k has any occupied slot. */
    std::uint32_t levelSummary_ = 0;

    /** The visible clock. */
    Ticks now_ = 0;
    /**
     * The wheel's reference time: slots are bucketed against it.
     * Always <= now_, and no live event is earlier. moveToWheel()
     * sets it to now_.
     */
    Ticks wheelNow_ = 0;
    /**
     * Lower bound on every pending event's timestamp (maxTick when
     * none). schedule() lowers it, nextDue() refreshes it, and
     * deschedule() leaves it stale-low, which is safe.
     */
    Ticks dueBound_ = maxTick;
    /** Exclusive bound on event execution while a gate is installed. */
    Ticks horizon_ = maxTick;
    AdvanceGate *gate_ = nullptr;
    std::uint64_t nextSeq_ = 0;
    std::size_t liveCount_ = 0;
    std::uint64_t executed_ = 0;
    TraceSink *traceSink_ = nullptr;
    FaultInjector *faultInjector_ = nullptr;
};

} // namespace svtsim

#endif // SVTSIM_SIM_EVENT_QUEUE_H
