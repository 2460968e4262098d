// Fixed-size thread pool: the execution substrate for every parallel
// Monte-Carlo workload in the toolkit.
//
// The pool is deliberately minimal: tasks are type-erased thunks, workers
// pull from one mutex-guarded queue, and destruction drains then joins.
// Determinism is NOT the pool's job - it comes from the layer above
// (exec::parallel_* collect chunk results in index order) and from the
// schedule-independent RNG streams of stats::Rng::stream(). The pool only
// promises that every submitted task runs exactly once.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace qrn::exec {

/// A fixed-size worker pool. Threads are started in the constructor and
/// joined in the destructor; submitted tasks may not outlive the pool.
class ThreadPool {
public:
    /// Starts `threads` workers (>= 1).
    explicit ThreadPool(unsigned threads);

    /// Drains the queue, then stops and joins every worker.
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Drains the queue, then stops and joins every worker. The pool
    /// object stays valid; any later submit() throws std::logic_error.
    /// Idempotent. Must not be called from a worker thread (a task cannot
    /// join its own pool).
    void stop();

    /// Enqueues one task. Tasks must not throw out of the thunk itself;
    /// exec::parallel_* wrap user work in exception capture before
    /// submitting. Thread-safe. Throws std::logic_error after stop().
    void submit(std::function<void()> task);

    /// The process-wide pool, lazily started with hardware_concurrency
    /// workers. Shared by every parallel_* call so repeated campaigns do
    /// not pay thread start-up per invocation.
    static ThreadPool& shared();

    /// True when the calling thread is a worker of any ThreadPool. Used by
    /// parallel_* to fall back to serial execution instead of deadlocking
    /// on nested submission.
    static bool on_worker_thread() noexcept;

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    bool stopping_ = false;
};

}  // namespace qrn::exec
