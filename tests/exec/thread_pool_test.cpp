// ThreadPool: startup/shutdown, task execution, worker detection.
#include "exec/thread_pool.h"

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

namespace qrn::exec {
namespace {

TEST(ThreadPool, RejectsZeroWorkers) {
    EXPECT_THROW(ThreadPool(0), std::invalid_argument);
}

TEST(ThreadPool, RunsEverySubmittedTask) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(4);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&counter] { counter.fetch_add(1); });
        }
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
    std::atomic<int> counter{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i) {
            pool.submit([&counter] {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                counter.fetch_add(1);
            });
        }
    }
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, DetectsWorkerThreads) {
    EXPECT_FALSE(ThreadPool::on_worker_thread());
    std::atomic<bool> seen_on_worker{false};
    {
        ThreadPool pool(2);
        pool.submit([&seen_on_worker] {
            seen_on_worker.store(ThreadPool::on_worker_thread());
        });
    }
    EXPECT_TRUE(seen_on_worker.load());
    EXPECT_FALSE(ThreadPool::on_worker_thread());
}

TEST(ThreadPool, StopDrainsQueueThenRejectsSubmit) {
    std::atomic<int> counter{0};
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.stop();
    EXPECT_EQ(counter.load(), 16);
    EXPECT_THROW(pool.submit([] {}), std::logic_error);
}

TEST(ThreadPool, StopIsIdempotent) {
    ThreadPool pool(2);
    pool.stop();
    pool.stop();  // second stop: no workers left to join, must not hang
    EXPECT_THROW(pool.submit([] {}), std::logic_error);
}

TEST(ThreadPool, SharedPoolIsReusedAndNonEmpty) {
    ThreadPool& a = ThreadPool::shared();
    ThreadPool& b = ThreadPool::shared();
    EXPECT_EQ(&a, &b);
    // Non-empty: a submitted task runs. The promise is shared so a late
    // run after a failed wait still writes to live memory.
    const auto ran = std::make_shared<std::promise<void>>();
    std::future<void> done = ran->get_future();
    a.submit([ran] { ran->set_value(); });
    EXPECT_EQ(done.wait_for(std::chrono::seconds(10)), std::future_status::ready);
}

}  // namespace
}  // namespace qrn::exec
