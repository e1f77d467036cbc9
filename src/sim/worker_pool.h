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

    /**
     * Epoch/bulk path: run @p count persistent tasks and block until
     * all of them (and any earlier submit()s) have completed. The
     * tasks are borrowed by pointer — nothing is copied or
     * heap-allocated per task — so a caller that re-runs the same
     * task set every window (the cluster engine's per-machine epoch
     * slots) pays no per-window allocation. The pointed-to callables
     * must stay alive and unmodified until this call returns. The
     * calling thread runs queued tasks beside the workers (an owned
     * submit() item included) before it waits.
     */
    void runTasks(std::function<void()> *const *tasks,
                  std::size_t count);

    /** Block until every task submitted so far has completed. */
    void wait();

    int workers() const { return static_cast<int>(threads_.size()); }

    /** Reasonable default worker count for this host (>= 1). */
    static int defaultWorkers();

  private:
    /**
     * Queue entry: either an owned callable (submit()) or a borrowed
     * pointer to a caller-owned persistent slot (runTasks()).
     */
    struct Item
    {
        std::function<void()> owned;
        std::function<void()> *borrowed = nullptr;
    };

    void workerLoop();
    /** Pop the queue's front into @p item and count it in flight.
     *  Requires mutex_ held and a non-empty queue. */
    void takeFront(Item &item);
    /** Run @p item (mutex_ not held), then retire it. */
    void runItem(Item &item);

    std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable allDone_;
    std::deque<Item> queue_;
    std::size_t inFlight_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace svtsim

#endif // SVTSIM_SIM_WORKER_POOL_H
