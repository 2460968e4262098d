#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace qrn::exec {

namespace detail {

namespace {
std::function<void(std::size_t)> g_submit_fault;
}  // namespace

void set_submit_fault_for_test(std::function<void(std::size_t)> hook) {
    g_submit_fault = std::move(hook);
}

}  // namespace detail

namespace {

/// Declares every metric parallel_for may touch, on BOTH execution paths,
/// so a --metrics manifest has the same structure (same names, same
/// order) for every --jobs value; only the values are schedule-dependent.
void declare_parallel_metrics() {
    obs::add_counter("exec.parallel_calls", 1);
    obs::add_counter("exec.chunks_executed", 0);
    obs::add_counter("exec.chunks_serial", 0);
    obs::add_counter("exec.tasks_submitted", 0);
    obs::add_counter("exec.pool.tasks_executed", 0);
    obs::record_max("exec.pool.queue_depth_max", 0);
    obs::declare_timer("exec.chunk_ns");
    obs::declare_timer("exec.task_wait_ns");
}

}  // namespace

unsigned default_jobs() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::vector<ChunkRange> chunk_ranges(unsigned jobs, std::size_t count) {
    std::vector<ChunkRange> out;
    if (count == 0) return out;
    // Oversubscribe parallel runs: kChunksPerJob chunks per worker (capped
    // by count). With one chunk per worker, the whole run waits on the
    // slowest chunk - per-index cost varies (incident-heavy stretches,
    // PR 4 chunk_ns vs task_wait_ns timers), so smaller chunks let fast
    // workers absorb the straggler's tail. Chunks stay coarse enough that
    // chunk cost dominates the ~µs dispatch cost, and since results merge
    // in chunk-index order the output is unchanged by the split.
    constexpr std::size_t kChunksPerJob = 4;
    const std::size_t target =
        jobs <= 1 ? 1 : static_cast<std::size_t>(jobs) * kChunksPerJob;
    const std::size_t chunks = std::min<std::size_t>(count, target);
    out.reserve(chunks);
    const std::size_t base = count / chunks;
    const std::size_t extra = count % chunks;  // first `extra` chunks get +1
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t size = base + (c < extra ? 1 : 0);
        out.push_back(ChunkRange{begin, begin + size, c});
        begin += size;
    }
    return out;
}

void parallel_for(unsigned jobs, std::size_t count,
                  const std::function<void(const ChunkRange&)>& body) {
    const auto chunks = chunk_ranges(jobs, count);
    if (chunks.empty()) return;

    const bool metrics = obs::enabled();
    if (metrics) declare_parallel_metrics();

    // Serial fallback: one job requested, a single chunk, or we are already
    // on a pool worker (nested parallel_for would deadlock a fixed pool).
    if (jobs <= 1 || chunks.size() == 1 || ThreadPool::on_worker_thread()) {
        if (metrics) {
            obs::add_counter("exec.chunks_executed", chunks.size());
            obs::add_counter("exec.chunks_serial", chunks.size());
        }
        for (const auto& chunk : chunks) {
            const obs::ScopedTimer timer("exec.chunk_ns");
            body(chunk);
        }
        return;
    }
    // `jobs` caps concurrency: min(jobs, chunks) runner tasks, each
    // claiming chunk indices in order from one shared counter until none
    // is left. Pool threads beyond that take no part in this call.
    const std::size_t runners = std::min<std::size_t>(jobs, chunks.size());
    if (metrics) {
        obs::add_counter("exec.chunks_executed", chunks.size());
        obs::add_counter("exec.tasks_submitted", runners);
    }

    // Completion state lives on THIS stack frame, and workers reach it
    // only through a raw pointer held by their task objects. That is safe
    // because this frame never unwinds - not even when submit() throws
    // mid-loop - until `remaining` says every constructed task has been
    // DESTROYED, and it is the whole point: after the final decrement a
    // worker touches no memory this thread will ever look at again, so
    // there is no teardown tail racing the main thread's reads. (The
    // previous design co-owned a heap block via shared_ptr and decremented
    // from the task body; a worker's late release of its last reference
    // could then free the stored exception while the main thread was still
    // inspecting the rethrown copy - synchronized only by uninstrumented
    // libstdc++ refcounts, which ThreadSanitizer flagged intermittently.)
    struct Completion {
        const std::vector<ChunkRange>* chunks = nullptr;
        std::atomic<std::size_t> next_chunk{0};
        std::vector<std::exception_ptr> errors;
        std::mutex mutex;
        std::condition_variable done;
        std::size_t remaining = 0;
    };
    Completion state;
    state.chunks = &chunks;
    state.errors.resize(chunks.size());
    state.remaining = runners;

    // One runner's unit of work, tied to the completion state by its
    // DESTRUCTOR, not by its body: the decrement fires only once the pool
    // worker has fully torn the task down (every claimed chunk run, each
    // caught exception stored, the runner's turn at the shared block
    // over). So `remaining == 0` means "no submitted task will ever touch
    // the completion state or `body` again" - the quiesce that lets this
    // frame safely rethrow the stored exceptions and unwind.
    struct RunnerTask {
        Completion* state;
        const std::function<void(const ChunkRange&)>* body;
        std::uint64_t enqueue_ns;
        bool metrics;

        RunnerTask(Completion* state_in,
                   const std::function<void(const ChunkRange&)>* body_in,
                   std::uint64_t enqueue_ns_in, bool metrics_in)
            : state(state_in),
              body(body_in),
              enqueue_ns(enqueue_ns_in),
              metrics(metrics_in) {}

        RunnerTask(const RunnerTask&) = delete;
        RunnerTask& operator=(const RunnerTask&) = delete;

        ~RunnerTask() {
            // Notify while holding the lock: the waiter may return from
            // wait() as soon as it observes remaining == 0, which it can
            // only do after we release the mutex - i.e. strictly after
            // notify_one returns. This is the task's last access to any
            // shared state; what remains is freeing the task's own block.
            const std::lock_guard<std::mutex> lock(state->mutex);
            --state->remaining;
            state->done.notify_one();
        }

        void run() {
            if (metrics) {
                obs::record_timer("exec.task_wait_ns",
                                  obs::now_ns() - enqueue_ns);
            }
            const std::vector<ChunkRange>& chunks = *state->chunks;
            for (std::size_t c = state->next_chunk++; c < chunks.size();
                 c = state->next_chunk++) {
                try {
                    const obs::ScopedTimer timer("exec.chunk_ns");
                    (*body)(chunks[c]);
                } catch (...) {
                    state->errors[c] = std::current_exception();
                }
            }
        }
    };

    auto& pool = ThreadPool::shared();
    // Runners whose decrement is owned by a constructed RunnerTask. A task
    // destroyed without ever running (its submit() threw after the task
    // existed) still decrements, so the accounting holds on every path.
    std::size_t accounted = 0;
    try {
        for (std::size_t r = 0; r < runners; ++r) {
            if (detail::g_submit_fault) detail::g_submit_fault(r);
            const std::uint64_t enqueue_ns = metrics ? obs::now_ns() : 0;
            // shared_ptr only to satisfy std::function's copyability; the
            // dtor - and therefore the decrement - still runs exactly once.
            auto task =
                std::make_shared<RunnerTask>(&state, &body, enqueue_ns, metrics);
            ++accounted;
            pool.submit([task] { task->run(); });
        }
    } catch (...) {
        // Submission failed mid-loop. Runners that never got a task will
        // not decrement; take their share off ourselves, then wait for
        // every constructed task to be destroyed - the queued runners
        // drain every chunk, so neither the caller-owned `body` nor this
        // frame's state is referenced after it unwinds - then surface the
        // failure.
        {
            std::unique_lock<std::mutex> lock(state.mutex);
            state.remaining -= runners - accounted;
            state.done.wait(lock, [&] { return state.remaining == 0; });
        }
        throw;
    }
    {
        std::unique_lock<std::mutex> lock(state.mutex);
        state.done.wait(lock, [&] { return state.remaining == 0; });
    }
    // Rethrow the lowest-index failure: the same exception a serial
    // left-to-right loop would have raised first.
    for (auto& error : state.errors) {
        if (error) std::rethrow_exception(error);
    }
}

}  // namespace qrn::exec
