#include "sim/worker_pool.h"

#include <algorithm>

namespace svtsim {

WorkerPool::WorkerPool(int workers)
{
    int n = std::max(1, workers);
    threads_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
WorkerPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    taskReady_.notify_one();
}

void
WorkerPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock,
                  [this] { return queue_.empty() && inFlight_ == 0; });
}

int
WorkerPool::defaultWorkers()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                // stopping_ and nothing left to drain.
                return;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
        }
        task();
        std::lock_guard<std::mutex> lock(mutex_);
        --inFlight_;
        if (queue_.empty() && inFlight_ == 0)
            allDone_.notify_all();
    }
}

} // namespace svtsim
