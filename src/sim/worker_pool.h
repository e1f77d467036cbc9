/**
 * @file
 * Fixed-size thread pool for running independent simulations in
 * parallel.
 *
 * The pool is deliberately minimal: submit() enqueues fire-and-forget
 * tasks, wait() blocks until every submitted task has finished. Task
 * completion order is unspecified — callers that need deterministic
 * output (the sweep engine does) must write results into
 * caller-owned, per-task slots and aggregate in submission order.
 * Tasks must not throw; exceptions that would escape a task terminate
 * the process, so callers wrap their work in a catch-all.
 *
 * Only the sweep engine's scenario-level parallelism (--jobs) runs
 * here: a scenario takes milliseconds to seconds, so one mutex/condvar
 * hand-off per task is noise. Cluster epochs (--cluster-jobs) last one
 * link lookahead, a few microseconds of host time, and meet at an
 * EpochCrew's ticket barrier instead (system/epoch_crew.h).
 */

#ifndef SVTSIM_SIM_WORKER_POOL_H
#define SVTSIM_SIM_WORKER_POOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace svtsim {

/** Fixed-size worker pool; threads live for the pool's lifetime. */
class WorkerPool
{
  public:
    /** @param workers Number of threads; clamped to at least 1. */
    explicit WorkerPool(int workers);

    /** Joins all workers; pending tasks are completed first. */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Enqueue a task. Thread-safe. */
    void submit(std::function<void()> task);

    /** Block until every task submitted so far has completed. */
    void wait();

    int workers() const { return static_cast<int>(threads_.size()); }

    /** Reasonable default worker count for this host (>= 1). */
    static int defaultWorkers();

  private:
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> queue_;
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace svtsim

#endif // SVTSIM_SIM_WORKER_POOL_H
