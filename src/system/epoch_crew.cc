#include "system/epoch_crew.h"

#include <pthread.h>
#include <sched.h>

#include <algorithm>

#include "sim/log.h"

namespace svtsim {

namespace {

/**
 * An epoch wait first spins this many pauses (about a microsecond),
 * then yields this many times, then parks in atomic::wait. The yields
 * poll for about as long as an epoch's barrier work and steps take
 * (tens of microseconds) without holding a CPU that the thread being
 * waited for may need on an oversubscribed host. Parking costs a
 * futex wake on the other side, which on a virtualised host can take
 * longer than a whole epoch.
 */
constexpr int kSpinPauses = 48;
constexpr int kSpinYields = 200;

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#endif
}

/**
 * Spin, yield, then park until @p word no longer reads @p old;
 * returns the value read (acquire). Writers store the words it waits
 * on seq_cst: libstdc++'s notify skips the futex wake when its
 * (seq_cst) count of waiters reads zero, and only a seq_cst store is
 * ordered before that load, so a waiter that has just registered
 * cannot miss both the new value and the wake.
 */
std::uint32_t
awaitChange(const std::atomic<std::uint32_t> &word, std::uint32_t old)
{
    for (int i = 0; i < kSpinPauses + kSpinYields; ++i) {
        const std::uint32_t v = word.load(std::memory_order_acquire);
        if (v != old)
            return v;
        if (i < kSpinPauses)
            cpuRelax();
        else
            std::this_thread::yield();
    }
    for (;;) {
        word.wait(old, std::memory_order_acquire);
        const std::uint32_t v = word.load(std::memory_order_acquire);
        if (v != old)
            return v;
    }
}

/**
 * Move the calling crew member off the coordinator's CPU, to the
 * (@p index + 1)-th CPU after it in the thread's affinity mask, then
 * give the thread its full mask back. A new thread starts on its
 * creator's CPU, and a host that does not balance load across CPUs
 * (a cpuset with sched_load_balance off) keeps it there, so every
 * member would time-share the coordinator's CPU. The restored mask
 * leaves the scheduler free to move the member later.
 */
void
leaveCoordinatorCpu(int coordinatorCpu, int index)
{
    cpu_set_t mask;
    if (coordinatorCpu < 0 ||
        pthread_getaffinity_np(pthread_self(), sizeof mask, &mask) != 0)
        return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &mask))
            cpus.push_back(c);
    if (cpus.size() < 2)
        return;
    const std::size_t at = static_cast<std::size_t>(
        std::find(cpus.begin(), cpus.end(), coordinatorCpu) -
        cpus.begin());
    const std::size_t hop =
        1 + static_cast<std::size_t>(index) % (cpus.size() - 1);
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[(at + hop) % cpus.size()], &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0)
        pthread_setaffinity_np(pthread_self(), sizeof mask, &mask);
}

/** Ticket layout: generation (bits 63..32), step count (31..16),
 *  next unclaimed step index (15..0). */
constexpr std::uint64_t
packTicket(std::uint32_t generation, std::size_t count)
{
    return (static_cast<std::uint64_t>(generation) << 32) |
           (static_cast<std::uint64_t>(count) << 16);
}

} // namespace

EpochCrew::EpochCrew(int members, Step step) : step_(std::move(step))
{
    const int coordinatorCpu = sched_getcpu();
    threads_.reserve(static_cast<std::size_t>(std::max(0, members)));
    for (int i = 0; i < members; ++i)
        threads_.emplace_back([this, coordinatorCpu, i] {
            leaveCoordinatorCpu(coordinatorCpu, i);
            memberLoop();
        });
}

EpochCrew::~EpochCrew()
{
    stopping_.store(true, std::memory_order_relaxed);
    generation_.store(gen_ + 1);
    generation_.notify_all();
    for (auto &t : threads_)
        t.join();
}

int
EpochCrew::hardwareThreads()
{
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void
EpochCrew::run(std::size_t count)
{
    if (threads_.empty() || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            step_(i);
        return;
    }
    simAssert(count <= kMaxSteps, "EpochCrew: too many steps in one "
                                  "epoch");
    ++gen_;
    // No step of the previous epoch is still running (run() waited
    // for all of them), so nobody can count into the reset.
    finished_.store(0, std::memory_order_relaxed);
    ticket_.store(packTicket(gen_, count), std::memory_order_release);
    generation_.store(gen_);
    generation_.notify_all();
    claimSteps();
    // Only claimed steps are waited for: once the ticket is exhausted
    // every step is claimed, and idle members are not counted.
    for (std::uint32_t f;
         (f = finished_.load(std::memory_order_acquire)) != count;)
        awaitChange(finished_, f);
}

void
EpochCrew::claimSteps()
{
    std::uint64_t t = ticket_.load(std::memory_order_acquire);
    for (;;) {
        const std::uint64_t next = t & 0xffff;
        const std::uint64_t count = (t >> 16) & 0xffff;
        if (next >= count)
            return;
        // Fails, reloading t, when another thread claimed first or
        // the coordinator published a new generation meanwhile.
        if (!ticket_.compare_exchange_weak(t, t + 1,
                                           std::memory_order_acquire,
                                           std::memory_order_acquire))
            continue;
        step_(static_cast<std::size_t>(next));
        if (finished_.fetch_add(1) + 1 == count)
            finished_.notify_one();
        t = ticket_.load(std::memory_order_acquire);
    }
}

void
EpochCrew::memberLoop()
{
    std::uint32_t seen = 0;
    for (;;) {
        seen = awaitChange(generation_, seen);
        if (stopping_.load(std::memory_order_relaxed))
            return;
        claimSteps();
    }
}

} // namespace svtsim
