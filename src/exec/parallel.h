// Deterministic parallel-for / parallel-map over index ranges.
//
// Every stochastic workload in the toolkit (fleet campaigns, the MECE
// sampling certificate, incident labelling) is a map
// over an index range where item i's randomness comes from its own RNG
// stream (stats::Rng::stream(seed, i)). That makes the work
// schedule-independent: these helpers only have to (a) spread chunks over
// the shared thread pool and (b) collect results in chunk-index order, and
// the output is bit-identical for every `jobs` value, including the serial
// fallback at jobs == 1.
//
// Contract for callers: with jobs > 1 the per-index work must be safe to
// run concurrently (no shared mutable state; derive RNGs per index) and
// its result must depend only on the index, never on execution order.
//
// Exceptions thrown by the work are captured per chunk and the one from
// the lowest chunk index is rethrown after all chunks finish - the same
// exception the serial loop would have surfaced first.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

namespace qrn::exec {

namespace detail {
/// Test seam: invoked with the runner index right before each runner
/// task submission inside parallel_for. A hook that throws simulates
/// ThreadPool::submit failing mid-loop (e.g. the pool stopping), which is
/// how the unwind-safety regression tests drive that path
/// deterministically. Pass nullptr to restore production behaviour.
/// Not thread-safe against concurrent parallel_for calls; tests only.
void set_submit_fault_for_test(std::function<void(std::size_t)> hook);
}  // namespace detail

/// Number of jobs to use when the caller expressed no preference:
/// hardware_concurrency, with a floor of 1.
[[nodiscard]] unsigned default_jobs() noexcept;

/// One contiguous chunk of an index range: indices [begin, end).
struct ChunkRange {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t index = 0;  ///< Chunk number, 0-based, in range order.
};

/// The chunk decomposition parallel_for uses: contiguous near-equal chunks
/// covering [0, count) - one chunk at jobs <= 1, up to 4 per job otherwise
/// (oversubscription smooths stragglers when per-index cost varies).
/// Exposed so callers (and tests) can reason about partial ordering;
/// results must never depend on it.
[[nodiscard]] std::vector<ChunkRange> chunk_ranges(unsigned jobs, std::size_t count);

/// Runs `body` over [0, count) split into the chunk_ranges decomposition.
/// jobs <= 1 (or nesting inside a pool worker) runs serially in the
/// calling thread, in chunk order. Otherwise min(jobs, chunks) runner
/// tasks on the shared pool claim chunks in index order, so at most
/// `jobs` chunks run at once whatever the pool's width. Blocks until
/// every chunk is done.
void parallel_for(unsigned jobs, std::size_t count,
                  const std::function<void(const ChunkRange&)>& body);

/// Runs `chunk_fn` over the chunk decomposition of [0, count) and returns
/// one result per chunk, ordered by chunk index regardless of which thread
/// finished first. This is the mergeable-partials primitive: callers fold
/// the returned partials left-to-right (e.g. per-chunk IncidentLogs).
template <typename R>
[[nodiscard]] std::vector<R> parallel_chunks(
    unsigned jobs, std::size_t count,
    const std::function<R(const ChunkRange&)>& chunk_fn) {
    // One slot per chunk, sized up front: concurrent writes then target
    // distinct elements, which is safe without further synchronization.
    std::vector<std::optional<R>> parts(chunk_ranges(jobs, count).size());
    parallel_for(jobs, count, [&](const ChunkRange& chunk) {
        parts[chunk.index].emplace(chunk_fn(chunk));
    });
    std::vector<R> out;
    out.reserve(parts.size());
    for (auto& part : parts) out.push_back(std::move(*part));
    return out;
}

/// Maps `fn` over every index of [0, count), returning results in index
/// order. T must be default-constructible (results are written in place).
template <typename T>
[[nodiscard]] std::vector<T> parallel_map(
    unsigned jobs, std::size_t count,
    const std::function<T(std::size_t)>& fn) {
    std::vector<T> out(count);
    parallel_for(jobs, count, [&](const ChunkRange& chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) out[i] = fn(i);
    });
    return out;
}

}  // namespace qrn::exec
