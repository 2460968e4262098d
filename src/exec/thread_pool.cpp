#include "exec/thread_pool.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"

namespace qrn::exec {

namespace {

thread_local bool t_on_worker_thread = false;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
    if (threads == 0) {
        throw std::invalid_argument("ThreadPool: threads must be >= 1");
    }
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (auto& worker : workers_) {
        if (worker.joinable()) worker.join();
    }
}

void ThreadPool::submit(std::function<void()> task) {
    std::size_t depth = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            throw std::logic_error("ThreadPool: submit after shutdown");
        }
        queue_.push_back(std::move(task));
        depth = queue_.size();
    }
    wake_.notify_one();
    // Recorded outside the pool mutex: the registry has its own lock and
    // a stale depth only ever under-reports the high-water mark by the
    // tasks that raced past, never over-reports it.
    if (obs::enabled()) {
        obs::record_max("exec.pool.queue_depth_max", depth);
    }
}

ThreadPool& ThreadPool::shared() {
    static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
    return pool;
}

bool ThreadPool::on_worker_thread() noexcept { return t_on_worker_thread; }

void ThreadPool::worker_loop() {
    t_on_worker_thread = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) return;  // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
        if (obs::enabled()) {
            obs::add_counter("exec.pool.tasks_executed", 1);
        }
    }
}

}  // namespace qrn::exec
