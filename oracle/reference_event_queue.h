/**
 * @file
 * ReferenceEventQueue: the pre-timing-wheel event queue, kept as an
 * executable specification.
 *
 * This is the binary-heap + unordered_map implementation that
 * sim/event_queue shipped with through PR 5. It is retained for two
 * purposes only:
 *
 *  - the differential test (tests/event_wheel_test.cc) replays long
 *    randomized schedule/cancel/advance sequences against both
 *    implementations and asserts identical fire order, now()
 *    trajectory and executedCount();
 *
 *  - bench/sim_speed measures the timing wheel's events/sec against
 *    this queue on the same workloads, so the committed
 *    BENCH_SPEED.json speedup is reproducible on any machine.
 *
 * It lives outside src/ so the simulator proper cannot use it. It
 * heap-allocates a record per event and leaks cancelled heap entries
 * until they surface — exactly the costs the timing wheel removes.
 *
 * One deliberate delta from the PR 5 code: scheduleIn()/advanceBy()
 * mirror the wheel's maxTick saturation (the PR 6 overflow bugfix), so
 * differential runs agree at the overflow boundary too.
 */

#ifndef SVTSIM_ORACLE_REFERENCE_EVENT_QUEUE_H
#define SVTSIM_ORACLE_REFERENCE_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/log.h"
#include "sim/ticks.h"

namespace svtsim {

/** Handle type mirroring EventQueue's EventId (both start at 1). */
using ReferenceEventId = std::uint64_t;

class ReferenceEventQueue
{
  public:
    ReferenceEventQueue() = default;

    ReferenceEventQueue(const ReferenceEventQueue &) = delete;
    ReferenceEventQueue &operator=(const ReferenceEventQueue &) = delete;

    Ticks now() const { return now_; }

    ReferenceEventId
    schedule(Ticks when, std::function<void()> fn)
    {
        if (when < now_) {
            panic("ReferenceEventQueue::schedule in the past "
                  "(when=%lld now=%lld)",
                  static_cast<long long>(when),
                  static_cast<long long>(now_));
        }
        ReferenceEventId id = nextId_++;
        heap_.push(HeapEntry{when, nextSeq_++, id});
        records_.emplace(id, std::move(fn));
        return id;
    }

    ReferenceEventId
    scheduleIn(Ticks delta, std::function<void()> fn)
    {
        Ticks when =
            delta >= maxTick - now_ ? maxTick : now_ + delta;
        return schedule(when, std::move(fn));
    }

    bool deschedule(ReferenceEventId id)
    {
        return records_.erase(id) != 0;
    }

    bool empty() const { return records_.empty(); }
    std::size_t size() const { return records_.size(); }

    Ticks
    nextEventTime() const
    {
        popCancelled();
        if (heap_.empty())
            return maxTick;
        return heap_.top().when;
    }

    void
    advanceTo(Ticks when)
    {
        if (when < now_) {
            panic("ReferenceEventQueue::advanceTo into the past "
                  "(when=%lld now=%lld)",
                  static_cast<long long>(when),
                  static_cast<long long>(now_));
        }
        for (;;) {
            popCancelled();
            if (heap_.empty() || heap_.top().when > when)
                break;
            std::function<void()> fn = takeTop();
            fn();
        }
        now_ = when;
    }

    void
    advanceBy(Ticks delta)
    {
        simAssert(delta >= 0,
                  "ReferenceEventQueue::advanceBy negative delta");
        advanceTo(delta >= maxTick - now_ ? maxTick : now_ + delta);
    }

    std::uint64_t executedCount() const { return executed_; }

    bool
    pending(ReferenceEventId id) const
    {
        return records_.find(id) != records_.end();
    }

  private:
    struct HeapEntry
    {
        Ticks when;
        std::uint64_t seq;
        ReferenceEventId id;

        bool
        operator>(const HeapEntry &other) const
        {
            if (when != other.when)
                return when > other.when;
            return seq > other.seq;
        }
    };

    void
    popCancelled() const
    {
        while (!heap_.empty() && !records_.count(heap_.top().id))
            heap_.pop();
    }

    std::function<void()>
    takeTop()
    {
        auto it = records_.find(heap_.top().id);
        simAssert(it != records_.end(),
                  "ReferenceEventQueue: live heap entry without record");
        std::function<void()> fn = std::move(it->second);
        records_.erase(it);
        now_ = heap_.top().when;
        heap_.pop();
        ++executed_;
        return fn;
    }

    mutable std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                                std::greater<>>
        heap_;
    std::unordered_map<ReferenceEventId, std::function<void()>> records_;
    Ticks now_ = 0;
    std::uint64_t nextSeq_ = 0;
    ReferenceEventId nextId_ = 1;
    std::uint64_t executed_ = 0;
};

} // namespace svtsim

#endif // SVTSIM_ORACLE_REFERENCE_EVENT_QUEUE_H
