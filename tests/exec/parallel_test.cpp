// parallel_for / parallel_map / parallel_chunks: chunk decomposition,
// ordered collection, exception propagation and nested-call safety.
#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "obs/metrics.h"

namespace qrn::exec {
namespace {

TEST(ChunkRanges, CoversRangeInOrderWithoutGaps) {
    for (const unsigned jobs : {1u, 2u, 3u, 7u, 16u}) {
        for (const std::size_t count : {0ul, 1ul, 5ul, 16ul, 100ul, 101ul}) {
            const auto chunks = chunk_ranges(jobs, count);
            std::size_t expected_begin = 0;
            for (std::size_t c = 0; c < chunks.size(); ++c) {
                EXPECT_EQ(chunks[c].index, c);
                EXPECT_EQ(chunks[c].begin, expected_begin);
                EXPECT_LT(chunks[c].begin, chunks[c].end);
                expected_begin = chunks[c].end;
            }
            EXPECT_EQ(expected_begin, count) << "jobs=" << jobs << " count=" << count;
            // Serial runs take one chunk; parallel runs oversubscribe up
            // to 4 chunks per job (capped by the element count).
            const std::size_t cap = jobs <= 1 ? 1 : std::size_t{jobs} * 4;
            EXPECT_LE(chunks.size(), cap);
            EXPECT_LE(chunks.size(), count);
        }
    }
}

TEST(ChunkRanges, SerialIsOneChunkAndParallelOversubscribes) {
    ASSERT_EQ(chunk_ranges(1, 100).size(), 1u);
    // 2 jobs x 4 chunks/job = 8 chunks over 100 indices.
    EXPECT_EQ(chunk_ranges(2, 100).size(), 8u);
    // Capped by count when the range is short.
    EXPECT_EQ(chunk_ranges(8, 5).size(), 5u);
}

TEST(ChunkRanges, ChunkSizesDifferByAtMostOne) {
    const auto chunks = chunk_ranges(7, 100);
    std::size_t min_size = 100;
    std::size_t max_size = 0;
    for (const auto& chunk : chunks) {
        min_size = std::min(min_size, chunk.end - chunk.begin);
        max_size = std::max(max_size, chunk.end - chunk.begin);
    }
    EXPECT_LE(max_size - min_size, 1u);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
    std::vector<std::atomic<int>> visits(257);
    parallel_for(7, visits.size(), [&](const ChunkRange& chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            visits[i].fetch_add(1);
        }
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelFor, ZeroCountIsANoOp) {
    bool called = false;
    parallel_for(4, 0, [&](const ChunkRange&) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelMap, ResultsInIndexOrderForEveryJobs) {
    const std::function<int(std::size_t)> square = [](std::size_t i) {
        return static_cast<int>(i * i);
    };
    const auto serial = parallel_map<int>(1, 100, square);
    for (const unsigned jobs : {2u, 7u, 32u}) {
        EXPECT_EQ(parallel_map<int>(jobs, 100, square), serial) << "jobs=" << jobs;
    }
}

TEST(ParallelChunks, PartialsOrderedByChunkIndex) {
    const auto parts = parallel_chunks<std::size_t>(
        7, 100, [](const ChunkRange& chunk) { return chunk.begin; });
    EXPECT_TRUE(std::is_sorted(parts.begin(), parts.end()));
    std::size_t covered = 0;
    const auto chunks = chunk_ranges(7, 100);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        EXPECT_EQ(parts[c], chunks[c].begin);
        covered += chunks[c].end - chunks[c].begin;
    }
    EXPECT_EQ(covered, 100u);
}

TEST(ParallelFor, RethrowsLowestChunkException) {
    // Every chunk beyond the first throws; the lowest throwing chunk must
    // win, matching a serial scan's first failure. (jobs >= 2 so the range
    // actually splits into multiple chunks.)
    for (const unsigned jobs : {2u, 4u}) {
        try {
            parallel_for(jobs, 100, [](const ChunkRange& chunk) {
                if (chunk.index >= 1) {
                    throw std::runtime_error("chunk " + std::to_string(chunk.index));
                }
            });
            FAIL() << "expected an exception (jobs=" << jobs << ")";
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), "chunk 1") << "jobs=" << jobs;
        }
    }
}

/// Installs a submit-fault hook for one test and always restores
/// production behaviour, even when the test body throws.
class SubmitFaultGuard {
public:
    explicit SubmitFaultGuard(std::function<void(std::size_t)> hook) {
        detail::set_submit_fault_for_test(std::move(hook));
    }
    ~SubmitFaultGuard() { detail::set_submit_fault_for_test(nullptr); }
    SubmitFaultGuard(const SubmitFaultGuard&) = delete;
    SubmitFaultGuard& operator=(const SubmitFaultGuard&) = delete;
};

TEST(ParallelFor, SubmitFailureMidLoopDrainsSubmittedChunksThenRethrows) {
    // Regression test for the unwind-safety bug: when submit() throws
    // mid-loop (a pool shutting down), the runner tasks already queued
    // keep running while parallel_for's frame unwinds. The completion
    // state they touch must therefore outlive the frame, and parallel_for
    // must wait for them before rethrowing so the caller-owned body stays
    // valid. ASan/TSan runs of this test pin the use-after-scope.
    constexpr unsigned kJobs = 4;
    constexpr std::size_t kFaultRunner = 2;
    std::vector<std::atomic<int>> visits(80);
    ASSERT_GT(chunk_ranges(kJobs, visits.size()).size(), kJobs);

    const SubmitFaultGuard guard([](std::size_t runner_index) {
        if (runner_index == kFaultRunner) {
            throw std::runtime_error("submit fault");
        }
    });
    try {
        parallel_for(kJobs, visits.size(), [&](const ChunkRange& chunk) {
            for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
                visits[i].fetch_add(1);
            }
        });
        FAIL() << "expected the submit fault to propagate";
    } catch (const std::runtime_error& error) {
        EXPECT_STREQ(error.what(), "submit fault");
    }
    // The runners queued before the fault claim chunks until none is
    // left, so every index ran exactly once, and all of it before the
    // rethrow (the drain completed first).
    for (std::size_t i = 0; i < visits.size(); ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, SubmitFailureOnFirstChunkRunsNothing) {
    std::atomic<std::size_t> indices_run{0};
    const SubmitFaultGuard guard(
        [](std::size_t) { throw std::runtime_error("first submit fault"); });
    EXPECT_THROW(parallel_for(4, 64,
                              [&](const ChunkRange& chunk) {
                                  indices_run.fetch_add(chunk.end - chunk.begin);
                              }),
                 std::runtime_error);
    EXPECT_EQ(indices_run.load(), 0u);
}

TEST(ParallelFor, RunsAtMostJobsChunksAtOnce) {
    // jobs caps concurrency whatever the shared pool's width: at most
    // `jobs` chunk bodies are in flight at any moment. Each chunk holds
    // its slot for a while so that any excess runner would overlap.
    for (const unsigned jobs : {2u, 3u}) {
        std::atomic<int> running{0};
        std::atomic<int> peak{0};
        parallel_for(jobs, 64, [&](const ChunkRange&) {
            const int now = running.fetch_add(1) + 1;
            int seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            running.fetch_sub(1);
        });
        EXPECT_GE(peak.load(), 1) << "jobs=" << jobs;
        EXPECT_LE(peak.load(), static_cast<int>(jobs)) << "jobs=" << jobs;
    }
}

TEST(ParallelFor, NestedCallsFallBackToSerialWithoutDeadlock) {
    std::atomic<int> inner_total{0};
    parallel_for(4, 8, [&](const ChunkRange& outer) {
        parallel_for(4, 16, [&](const ChunkRange& inner) {
            inner_total.fetch_add(static_cast<int>(inner.end - inner.begin));
        });
        (void)outer;
    });
    const auto outer_chunks = chunk_ranges(4, 8).size();
    EXPECT_EQ(inner_total.load(), static_cast<int>(outer_chunks) * 16);
}

TEST(DefaultJobs, AtLeastOne) { EXPECT_GE(default_jobs(), 1u); }

// ---- behaviour pins with instrumentation armed -------------------------
//
// The observability layer must not change what parallel_for does, and the
// instrumentation itself must declare the same metric names on every
// execution path so --metrics manifests are structurally identical for
// any --jobs value (obs/metrics.h "deterministic structure" rule).

/// Arms the obs registry for one test and restores the disabled default.
struct MetricsArmed {
    MetricsArmed() {
        obs::reset();
        obs::set_enabled(true);
    }
    ~MetricsArmed() {
        obs::set_enabled(false);
        obs::reset();
    }
};

std::vector<std::string> metric_names() {
    std::vector<std::string> names;
    for (const auto& c : obs::counters_snapshot()) names.push_back(c.name);
    for (const auto& t : obs::timers_snapshot()) names.push_back(t.name);
    return names;
}

std::uint64_t counter_value(const std::string& name) {
    for (const auto& c : obs::counters_snapshot()) {
        if (c.name == name) return c.value;
    }
    return 0;
}

TEST(ParallelForMetrics, JobsGreaterThanCountStillVisitsOnce) {
    const MetricsArmed armed;
    std::vector<std::atomic<int>> visits(3);
    parallel_for(16, visits.size(), [&](const ChunkRange& chunk) {
        for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
            visits[i].fetch_add(1);
        }
    });
    for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
    // chunk_ranges caps the chunk count at the element count.
    EXPECT_EQ(counter_value("exec.chunks_executed"), 3u);
}

TEST(ParallelForMetrics, ZeroCountIsANoOpAndRecordsNothing) {
    const MetricsArmed armed;
    bool called = false;
    parallel_for(4, 0, [&](const ChunkRange&) { called = true; });
    EXPECT_FALSE(called);
    // An empty range returns before touching the registry; the manifest
    // structure of a run is governed by the non-empty calls it makes.
    EXPECT_TRUE(obs::counters_snapshot().empty());
    EXPECT_TRUE(obs::timers_snapshot().empty());
}

TEST(ParallelForMetrics, NestedOnWorkerFallsBackToSerialAndCounts) {
    const MetricsArmed armed;
    std::atomic<int> inner_total{0};
    parallel_for(4, 8, [&](const ChunkRange& outer) {
        parallel_for(4, 16, [&](const ChunkRange& inner) {
            inner_total.fetch_add(static_cast<int>(inner.end - inner.begin));
        });
        (void)outer;
    });
    const auto outer_chunks = chunk_ranges(4, 8).size();
    EXPECT_EQ(inner_total.load(), static_cast<int>(outer_chunks) * 16);
    // Nested calls took the serial path on their worker; each executed
    // serial chunk is counted in both chunks_serial and chunks_executed.
    EXPECT_GE(counter_value("exec.chunks_serial"), outer_chunks);
    EXPECT_GE(counter_value("exec.chunks_executed"),
              counter_value("exec.chunks_serial"));
}

TEST(ParallelForMetrics, MetricNamesIdenticalAcrossJobs) {
    // The acceptance criterion behind --metrics: the *set* of metric
    // names is schedule-independent, serial path included.
    std::vector<std::string> serial_names;
    {
        const MetricsArmed armed;
        parallel_for(1, 64, [](const ChunkRange&) {});
        serial_names = metric_names();
    }
    ASSERT_FALSE(serial_names.empty());
    for (const unsigned jobs : {2u, 7u}) {
        const MetricsArmed armed;
        parallel_for(jobs, 64, [](const ChunkRange&) {});
        EXPECT_EQ(metric_names(), serial_names) << "jobs=" << jobs;
    }
}

TEST(ParallelMapMetrics, ResultsUnchangedByInstrumentation) {
    const std::function<int(std::size_t)> square = [](std::size_t i) {
        return static_cast<int>(i * i);
    };
    const auto bare = parallel_map<int>(4, 100, square);
    const MetricsArmed armed;
    EXPECT_EQ(parallel_map<int>(4, 100, square), bare);
}

}  // namespace
}  // namespace qrn::exec
