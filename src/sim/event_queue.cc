#include "sim/event_queue.h"

#include <algorithm>

namespace svtsim {

/*
 * Hierarchical timing wheel.
 *
 * Level k buckets pending events by byte k of their absolute
 * timestamp: an event goes to the level of the highest byte in which
 * its timestamp differs from the wheel's reference time wheelNow_
 * (its "distance magnitude"), into slot (when >> 8k) & 255. wheelNow_
 * trails the visible clock now_: an advance that crosses no pending
 * event moves only now_, and the wheel catches up at the next walk.
 * Three invariants carry the design:
 *
 *  1. Level-0 slots are exact-tick buckets: every event in a level-0
 *     slot has timestamp == window_base + slot, so firing a slot in
 *     list order is firing one tick's events.
 *
 *  2. For every level k >= 1, the slot whose window contains
 *     wheelNow_ is empty — its contents were cascaded down when
 *     wheelNow_ entered it (moveTimeTo). Hence all occupied level-k
 *     slots lie strictly after wheelNow_, and every event at level k
 *     is later than every event at any level < k (they differ from
 *     wheelNow_ in a higher byte). The next event therefore lives in
 *     the first occupied slot of the lowest occupied level.
 *
 *  3. Slot lists append on every insertion — direct schedule or
 *     cascade — and cascades walk lists in order, so within a tick
 *     list order is seq order (same-tick FIFO; see DESIGN.md for why
 *     a direct insert can never be overtaken by a later cascade).
 *
 * Eight levels cover all 64 bits, so every non-negative timestamp —
 * a saturated maxTick timer included — has a slot. nextDue() is the
 * one walk that finds the next due tick; advancing, draining to a
 * horizon and running one event are loops over it. Each walk leaves
 * dueBound_, a lower bound on every pending timestamp, for the inline
 * advance fast path.
 */

EventQueue::~EventQueue() = default;

EventId
EventQueue::schedule(Ticks when, EventClosure fn, std::string_view label)
{
    if (SVTSIM_UNLIKELY(when < now_)) {
        panic("EventQueue::schedule in the past (when=%lld now=%lld %.*s)",
              static_cast<long long>(when), static_cast<long long>(now_),
              static_cast<int>(label.size()),
              label.empty() ? "" : label.data());
    }
    const std::uint32_t idx = allocRecord();
    Record &rec = recordAt(idx);
    rec.fn = std::move(fn);
    rec.when = when;
    rec.seq = nextSeq_++;
    placeRecord(idx, rec);
    ++liveCount_;
    dueBound_ = std::min(dueBound_, when);
    return makeId(idx, rec.gen);
}

EventId
EventQueue::scheduleIn(Ticks delta, EventClosure fn,
                       std::string_view label)
{
    // Saturate instead of overflowing: now_ + delta past maxTick is
    // signed overflow (UB) and then a nonsense schedule-in-the-past
    // panic. A saturated timeout pends forever, which is what an
    // "infinite" deadline means. Negative deltas still reach the
    // schedule-in-the-past panic below.
    const Ticks when =
        delta >= maxTick - now_ ? maxTick : now_ + delta;
    return schedule(when, std::move(fn), label);
}

bool
EventQueue::deschedule(EventId id)
{
    // Cancelling an already-fired, already-cancelled or unknown handle
    // is a no-op, matching the forgiving semantics of timer APIs. A
    // live handle is unlinked from its slot eagerly — no lazy-deletion
    // debris — and the closure (and anything it captured) is released
    // right here.
    if (lookup(id) == nullptr)
        return false;
    const std::uint32_t idx = static_cast<std::uint32_t>(id) - 1;
    Record &rec = recordAt(idx);
    unlink(rec);
    freeRecord(idx, rec);
    --liveCount_;
    return true;
}

const EventQueue::Record *
EventQueue::lookup(EventId id) const
{
    const std::uint32_t low = static_cast<std::uint32_t>(id);
    if (low == 0 || low - 1 >= allocated_)
        return nullptr;
    const Record &rec = recordAt(low - 1);
    if (rec.level == levelFree ||
        rec.gen != static_cast<std::uint32_t>(id >> 32))
        return nullptr;
    return &rec;
}

std::uint32_t
EventQueue::allocRecord()
{
    if (SVTSIM_LIKELY(freeHead_ != nil)) {
        const std::uint32_t idx = freeHead_;
        freeHead_ = recordAt(idx).next;
        return idx;
    }
    if ((allocated_ >> 8) == chunks_.size())
        chunks_.emplace_back(new Record[chunkSize]);
    return allocated_++;
}

void
EventQueue::freeRecord(std::uint32_t idx, Record &rec)
{
    rec.fn.reset();
    ++rec.gen;
    rec.level = levelFree;
    rec.next = freeHead_;
    freeHead_ = idx;
}

void
EventQueue::placeRecord(std::uint32_t idx, Record &rec)
{
    const std::uint64_t diff =
        static_cast<std::uint64_t>(rec.when ^ wheelNow_);
    const int level = diff ? topBitIndex(diff) / slotBits : 0;
    const int slot = static_cast<int>(
        (rec.when >> (level * slotBits)) & slotMask);
    linkTail(level, slot, idx, rec);
}

void
EventQueue::linkTail(int level, int slot, std::uint32_t idx,
                     Record &rec)
{
    rec.level = static_cast<std::uint8_t>(level);
    rec.slot = static_cast<std::uint8_t>(slot);
    rec.next = nil;
    Slot &sl = slots_[level][slot];
    if (sl.tail == nil) {
        rec.prev = nil;
        sl.head = sl.tail = idx;
        markOccupied(level, slot);
    } else {
        rec.prev = sl.tail;
        recordAt(sl.tail).next = idx;
        sl.tail = idx;
    }
}

void
EventQueue::unlink(Record &rec)
{
    Slot &sl = slots_[rec.level][rec.slot];
    if (rec.prev != nil)
        recordAt(rec.prev).next = rec.next;
    else
        sl.head = rec.next;
    if (rec.next != nil)
        recordAt(rec.next).prev = rec.prev;
    else
        sl.tail = rec.prev;
    if (sl.head == nil)
        clearOccupied(rec.level, rec.slot);
}

void
EventQueue::markOccupied(int level, int slot)
{
    occupied_[level][slot >> 6] |= 1ull << (slot & 63);
    levelSummary_ |= 1u << level;
}

void
EventQueue::clearOccupied(int level, int slot)
{
    occupied_[level][slot >> 6] &= ~(1ull << (slot & 63));
    const std::uint64_t *w = occupied_[level];
    if ((w[0] | w[1] | w[2] | w[3]) == 0)
        levelSummary_ &= ~(1u << level);
}

int
EventQueue::firstOccupied(int level) const
{
    const std::uint64_t *w = occupied_[level];
    for (int i = 0; i < numSlots / 64; ++i)
        if (w[i])
            return i * 64 + bottomBitIndex(w[i]);
    return -1;
}

int
EventQueue::lowestOccupiedLevel() const
{
    return levelSummary_ ? bottomBitIndex(levelSummary_) : -1;
}

Ticks
EventQueue::slotBase(int level, int slot) const
{
    // The top level's window is the whole timeline: no bits above it
    // (and a shift by 64 would be undefined).
    const int shift = (level + 1) * slotBits;
    const Ticks above =
        level == numLevels - 1 ? 0 : (wheelNow_ >> shift) << shift;
    return above | (static_cast<Ticks>(slot) << (level * slotBits));
}

void
EventQueue::moveTimeTo(Ticks t)
{
    if (t == wheelNow_)
        return;
    const Ticks old = wheelNow_;
    wheelNow_ = t;
    const std::uint64_t diff = static_cast<std::uint64_t>(old ^ t);
    if (SVTSIM_LIKELY(!(diff >> slotBits)))
        return; // still inside the same level-0 window everywhere
    // Entered new windows at levels [1, top]: cascade each level's
    // now-current slot down, highest level first so its events land
    // in already-cascaded lower levels. Skipped slots between the old
    // and new positions are empty by the caller's precondition (no
    // live event earlier than t). Both times are non-negative, so
    // top is at most numLevels - 1. Most entered slots are empty, so
    // the emptiness test stays inline.
    for (int k = topBitIndex(diff) / slotBits; k >= 1; --k) {
        const int slot =
            static_cast<int>((t >> (k * slotBits)) & slotMask);
        if (slots_[k][slot].head != nil)
            cascade(k, slot);
    }
}

void
EventQueue::cascade(int level, int slot)
{
    Slot &sl = slots_[level][slot];
    std::uint32_t idx = sl.head;
    sl.head = sl.tail = nil;
    clearOccupied(level, slot);
    // Walk in list order so same-tick events keep their seq order in
    // the destination slots.
    while (idx != nil) {
        Record &rec = recordAt(idx);
        const std::uint32_t next = rec.next;
        placeRecord(idx, rec);
        idx = next;
    }
}

Ticks
EventQueue::nextEventTime() const
{
    const int level = lowestOccupiedLevel();
    if (level < 0)
        return maxTick;
    const int slot = firstOccupied(level);
    if (level == 0)
        return level0Time(slot);
    // An upper-level slot spans a window; its earliest entry is the
    // list minimum (slots hold insertion order, not time order).
    Ticks best = maxTick;
    for (std::uint32_t idx = slots_[level][slot].head; idx != nil;
         idx = recordAt(idx).next)
        best = std::min(best, recordAt(idx).when);
    return best;
}

void
EventQueue::fireCurrentSlot(Ticks t)
{
    const int slot = static_cast<int>(t & slotMask);
    // A handler may schedule at the current tick (appended to this
    // slot's tail: runs in this loop) or advance time recursively
    // (now_ moves past t: the recursion fired the rest, stop).
    while (now_ == t && slots_[0][slot].head != nil)
        fireHead(slot);
}

void
EventQueue::fireHead(int slot)
{
    const std::uint32_t idx = slots_[0][slot].head;
    Record &rec = recordAt(idx);
    unlink(rec);
    EventClosure fn = std::move(rec.fn);
    freeRecord(idx, rec);
    --liveCount_;
    ++executed_;
    fn();
}

bool
EventQueue::nextDue(Ticks last, Ticks &t)
{
    for (;;) {
        const int level = lowestOccupiedLevel();
        if (level < 0) {
            dueBound_ = maxTick;
            return false;
        }
        const int slot = firstOccupied(level);
        if (level == 0) {
            t = dueBound_ = level0Time(slot);
            return t <= last;
        }
        const Ticks base = dueBound_ = slotBase(level, slot);
        if (base > last)
            return false; // every event in the slot is >= base > last
        // Cascade the slot down and re-scan. The clock follows the
        // wheel to the window base, so a drain that fires nothing
        // still leaves now() there (see runUntilTick()).
        moveTimeTo(base);
        now_ = std::max(now_, base);
    }
}

void
EventQueue::advanceToSlow(Ticks when)
{
    if (SVTSIM_UNLIKELY(when < now_)) {
        panic("EventQueue::advanceTo into the past (when=%lld now=%lld)",
              static_cast<long long>(when),
              static_cast<long long>(now_));
    }
    // A target at or past the horizon would fire events this queue
    // does not own yet; hand off to the gate. Ungated queues only
    // take this branch for a saturated advanceTo(maxTick), where
    // gatedAdvance degenerates to the plain loop.
    if (SVTSIM_UNLIKELY(when >= horizon_)) {
        gatedAdvance(when, /*idle=*/false);
        return;
    }
    advanceUngated(when);
}

void
EventQueue::idleTo(Ticks when)
{
    if (SVTSIM_UNLIKELY(when < now_)) {
        panic("EventQueue::idleTo into the past (when=%lld now=%lld)",
              static_cast<long long>(when),
              static_cast<long long>(now_));
    }
    if (SVTSIM_UNLIKELY(when >= horizon_)) {
        gatedAdvance(when, /*idle=*/true);
        return;
    }
    advanceUngated(when);
}

void
EventQueue::gatedAdvance(Ticks when, bool idle)
{
    for (;;) {
        if (when < horizon_) {
            advanceUngated(when);
            return;
        }
        runUntilTick(horizon_);
        if (gate_ == nullptr || horizon_ == maxTick) {
            // No coordinator (saturated advance on an ungated queue),
            // or the gate granted maxTick to release the queue: fall
            // through to the plain loop.
            advanceUngated(when);
            return;
        }
        const Ticks granted = gate_->awaitHorizon(when);
        simAssert(granted > horizon_,
                  "AdvanceGate horizon did not move forward");
        horizon_ = granted;
        if (idle) {
            // Idle waits hand control back after every epoch so the
            // caller's halt loop sees barrier-merged packets promptly:
            // either the grant now covers the wait target (finish the
            // advance) or fire the new window and return early with
            // now() < when.
            if (when < horizon_)
                advanceUngated(when);
            else
                runUntilTick(horizon_);
            return;
        }
    }
}

std::uint64_t
EventQueue::runUntilTick(Ticks limit)
{
    const std::uint64_t before = executed_;
    Ticks t;
    while (nextDue(limit - 1, t)) {
        moveTimeTo(t);
        now_ = t;
        fireCurrentSlot(t);
    }
    return executed_ - before;
}

void
EventQueue::advanceUngated(Ticks when)
{
    Ticks t;
    while (nextDue(when, t)) {
        moveTimeTo(t);
        now_ = t;
        fireCurrentSlot(t);
    }
    // Nothing is due at or before when: only the clock moves.
    if (when > now_)
        now_ = when;
}

} // namespace svtsim
