/**
 * @file
 * The simulator's one thread mechanism: a crew of threads that meets
 * its coordinator once per epoch and shares out that epoch's indexed
 * steps. Cluster::run (--cluster-jobs) publishes one epoch per
 * lookahead window, a step per runnable machine; runSweep (--jobs)
 * publishes its scenarios, a step per result slot. Each builds
 * min(jobs, items) - 1 members; the coordinator (the thread calling
 * run()) is the crew's last hand. A cluster epoch lasts one link
 * lookahead, a few microseconds of host time, so the meeting point is
 * three atomics rather than a mutex, a queue and condvars:
 *
 *  - the *generation* word, which members wait on;
 *  - the *ticket*, one 64-bit word packing the generation, the epoch's
 *    step count and the next unclaimed step index;
 *  - the *finished* counter of the epoch's completed steps.
 *
 * run(count) publishes a ticket for a new generation, bumps the
 * generation word, then claims steps itself like any member. A claim
 * is a compare-and-swap of the whole ticket, so it succeeds only while
 * the ticket still carries the generation it was read under: a member
 * that wakes late finds a finished epoch's ticket exhausted or
 * replaced and runs none of its steps. Claiming in order of arrival,
 * not by fixed per-thread partitions, also balances epochs whose steps
 * differ in length by orders of magnitude. The coordinator then waits
 * only for the claimed steps to finish — never for idle members to
 * check in — so an epoch with one runnable thread (an oversubscribed
 * host) costs no more than running the steps inline.
 *
 * Every wait spins a few dozen pauses, then yields, then parks in
 * C++20 atomic wait/notify. Memory order: the coordinator's ticket
 * store (release) orders everything it wrote before an epoch — the
 * step inputs and the state the previous epoch's steps left behind —
 * before a member's successful claim (acquire); a member's finished
 * increment (release) orders its step's writes before the
 * coordinator's read of the count (acquire). A driver fiber may
 * therefore run on a different thread every epoch.
 *
 * Each member starts on a different CPU from the coordinator's (when
 * its affinity mask allows one), then gets its full mask back: a new
 * thread starts beside its creator, and a host that never balances
 * load across CPUs would otherwise keep the whole crew on one.
 */

#ifndef SVTSIM_SYSTEM_EPOCH_CREW_H
#define SVTSIM_SYSTEM_EPOCH_CREW_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace svtsim {

/** Threads that share out each epoch's steps at a ticket barrier. */
class EpochCrew
{
  public:
    /** Runs step @p index of the current epoch on whichever crew
     *  thread claimed it. Must not throw. */
    using Step = std::function<void(std::size_t index)>;

    /** Largest step count one epoch can publish (the ticket's
     *  16-bit count field). */
    static constexpr std::size_t kMaxSteps = 0xffff;

    /** Start @p members threads (none for members <= 0: run() then
     *  runs every step inline), each moved off the calling thread's
     *  CPU. */
    EpochCrew(int members, Step step);

    /** Wakes and joins every member, parked or not. */
    ~EpochCrew();

    EpochCrew(const EpochCrew &) = delete;
    EpochCrew &operator=(const EpochCrew &) = delete;

    /** One per hardware thread, at least 1 (what jobs = 0 asks for). */
    static int hardwareThreads();

    /**
     * Coordinator side: run steps 0 .. @p count - 1 of a new epoch on
     * this thread and the members, and return once every one of them
     * has finished. A lone step runs inline without waking anyone.
     * Not thread-safe: one coordinator per crew.
     */
    void run(std::size_t count);

  private:
    void memberLoop();
    /** Claim and run steps of whatever epoch the ticket carries until
     *  it is exhausted. */
    void claimSteps();

    Step step_;
    /** Coordinator-only: the generation of the latest epoch. */
    std::uint32_t gen_ = 0;
    alignas(64) std::atomic<std::uint32_t> generation_{0};
    alignas(64) std::atomic<std::uint64_t> ticket_{0};
    alignas(64) std::atomic<std::uint32_t> finished_{0};
    /** Set before the final generation bump; members exit on it. */
    std::atomic<bool> stopping_{false};
    std::vector<std::thread> threads_;
};

} // namespace svtsim

#endif // SVTSIM_SYSTEM_EPOCH_CREW_H
