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
        queue_.push_back(Item{std::move(task), nullptr});
    }
    taskReady_.notify_one();
}

void
WorkerPool::runTasks(std::function<void()> *const *tasks,
                     std::size_t count)
{
    if (count == 0)
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < count; ++i)
            queue_.push_back(Item{{}, tasks[i]});
    }
    // The caller takes a task itself, so wake at most count - 1
    // workers.
    if (count == 2)
        taskReady_.notify_one();
    else if (count > 2)
        taskReady_.notify_all();
    for (;;) {
        Item item;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (queue_.empty())
                break;
            takeFront(item);
        }
        runItem(item);
    }
    wait();
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
WorkerPool::takeFront(Item &item)
{
    item = std::move(queue_.front());
    queue_.pop_front();
    ++inFlight_;
}

void
WorkerPool::runItem(Item &item)
{
    if (item.borrowed != nullptr)
        (*item.borrowed)();
    else
        item.owned();
    std::lock_guard<std::mutex> lock(mutex_);
    --inFlight_;
    if (queue_.empty() && inFlight_ == 0)
        allDone_.notify_all();
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        Item item;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty()) {
                // stopping_ and nothing left to drain.
                return;
            }
            takeFront(item);
        }
        runItem(item);
    }
}

} // namespace svtsim
