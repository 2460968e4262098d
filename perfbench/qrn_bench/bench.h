// Shared plumbing of qrn-bench: options, the per-run outcome
// (operations attempted/failed, metrics), timing statistics, the span
// tracer behind --trace 1, and host context.
//
// Every workload has two entry points. run_* measures the end-to-end
// metrics with tracing off; trace_* runs the same calls with spans and the
// program's own obs counters armed and reports per-layer metrics. A span
// wraps each call the benchmark makes into a layer's public API, so the
// trace shows where a workload's wall time went without any code inside
// src/ knowing about the benchmark.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "qrn/incident_type.h"
#include "qrn/verification.h"
#include "sim/campaign.h"
#include "store/aggregate.h"
#include "store/campaign_store.h"
#include "store/store.h"

namespace qrn::bench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;     ///< Length of the measured window.
    bool trace = false;        ///< --trace 1: per-layer run.
    bool tiny = false;         ///< --size tiny: smoke-test sizes.
    std::string work_dir;      ///< Scratch root (stores, sockets).
    std::string trace_out;     ///< Chrome trace-event file (--trace 1).
    unsigned nproc = 1;        ///< Hardware threads; the load never exceeds it.
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Everything one run reports: operations attempted/failed, the first
/// few failure messages, and the metrics in emission order.
class Outcome {
public:
    /// Counts one operation; `ok == false` counts it failed and keeps
    /// `what` as the reason. Returns `ok`.
    bool op(bool ok, std::string_view what);
    /// Counts `n` operations that all succeeded.
    void ops(std::uint64_t n) { attempted_ += n; }
    /// Records a failure of an operation already counted.
    void fail(std::string_view what);

    void metric(std::string name, double value, std::string unit);

    [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
        return errors_;
    }
    [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
        return metrics_;
    }

private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> errors_;
    std::vector<Metric> metrics_;
};

// ---- time and statistics ---------------------------------------------

/// Seconds on the monotonic clock (arbitrary epoch).
[[nodiscard]] double now_s();

/// Wall seconds spent in `fn`.
double time_s(const std::function<void()>& fn);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
    return quantile(std::move(values), 0.5);
}
/// The time the fastest tenth of a closed loop's repetitions beat (their
/// 10th percentile). On a shared host identical repetitions of pure CPU
/// work run up to 1.7x slower for seconds at a time while other tenants
/// load the machine, so the median follows the neighbours and this follows
/// the program. Needs at least 10 repetitions to mean anything.
[[nodiscard]] inline double fast_tenth(std::vector<double> times) {
    return quantile(std::move(times), 0.1);
}

/// A measured window: keeps going until `seconds` have passed and at
/// least `min_reps` repetitions are done.
class Window {
public:
    explicit Window(double seconds) : end_(now_s() + seconds) {}
    [[nodiscard]] bool more(std::size_t done, std::size_t min_reps) const {
        return done < min_reps || now_s() < end_;
    }

private:
    double end_;
};

// ---- spans --------------------------------------------------------------

/// Process-wide span recorder. Disabled (every call a no-op) unless the
/// run is traced. Spans nest per thread; each records its parent.
class Tracer {
public:
    struct Span {
        std::string name;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;  ///< 0 for a root span.
        std::uint64_t thread = 0;  ///< Small per-thread number.
        double start_s = 0.0;
        double end_s = 0.0;
    };

    void set_enabled(bool on) noexcept { enabled_.store(on); }
    [[nodiscard]] bool enabled() const noexcept { return enabled_.load(); }

    /// Opens a span on the calling thread; returns its id (0 when off).
    std::uint64_t open(std::string_view name);
    void close(std::uint64_t id);

    [[nodiscard]] std::vector<Span> spans() const;

    /// Writes the spans as Chrome trace-event JSON ("X" events, one per
    /// span, with id and parent in args) plus `metadata` as top-level
    /// "otherData".
    void write_chrome_trace(const std::string& path,
                            const std::vector<std::pair<std::string, std::string>>&
                                metadata) const;

private:
    std::atomic<bool> enabled_{false};
};

[[nodiscard]] Tracer& tracer();

/// RAII span around one call into a layer, e.g. SpanScope s("store.aggregate_evidence").
class SpanScope {
public:
    explicit SpanScope(std::string_view name) : id_(tracer().open(name)) {}
    ~SpanScope() { tracer().close(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    std::uint64_t id_;
};

/// Per-name totals over the recorded spans: count, total and self time
/// (duration minus the part covered by child spans).
struct SpanTotals {
    std::string name;
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
};
[[nodiscard]] std::vector<SpanTotals> span_totals(const std::vector<Tracer::Span>& spans);

/// Arms or disarms both the span tracer and the program's obs registry
/// (which it also resets), so a traced section sees only its own counters.
void set_tracing(bool on);

/// The value of an obs counter (0 when absent) and an obs timer's
/// count/total.
[[nodiscard]] std::uint64_t obs_counter(std::string_view name);
struct ObsTimer {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
};
[[nodiscard]] ObsTimer obs_timer(std::string_view name);

// ---- filesystem and process ------------------------------------------

/// Creates `work_dir/name` empty (removing any leftover) and returns it.
[[nodiscard]] std::string fresh_dir(const Options& options, std::string_view name);
void remove_tree(const std::string& path);
/// Commits the file system holding `path` (syncfs): pending writes and
/// the discards of deleted files are paid here, not in the next timed run.
void settle_disk(const std::string& path);
/// Sorted (file name, bytes) of every `*.qrs` shard in a store directory.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> shard_files(
    const std::string& dir);

[[nodiscard]] double peak_rss_mb();
/// CPU seconds (user + system) of this process so far.
[[nodiscard]] double process_cpu_s();
/// Filesystem type name of the file system holding `path`.
[[nodiscard]] std::string fs_type(const std::string& path);
/// Host context lines: nproc, CPU model, compiler, build type, store fs.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> host_context(
    const Options& options);

// ---- output checks ---------------------------------------------------

/// Bit-level equality of pooled evidence (ids, event counts and the IEEE
/// bits of every exposure).
[[nodiscard]] bool same_evidence(const std::vector<TypeEvidence>& a,
                                 const std::vector<TypeEvidence>& b);
[[nodiscard]] inline bool same_bits(double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
}

// ---- store calls shared by the campaign workloads, each under a span ----

[[nodiscard]] std::unique_ptr<store::Store> open_store(const std::string& dir);
[[nodiscard]] store::StoreCampaignStats run_with_store(const sim::CampaignConfig& config,
                                                       store::Store& st,
                                                       const std::string& digest);
/// store::aggregate_evidence over `entries`, in fleet order.
[[nodiscard]] store::StoreAggregate aggregate(const store::Store& st,
                                              const std::vector<store::ShardEntry>& entries,
                                              const IncidentTypeSet& types, unsigned jobs);

// ---- workloads -------------------------------------------------------

void run_campaign_mem(const Options& options, Outcome& out);
void run_campaign_store(const Options& options, Outcome& out);
void run_campaign_dist(const Options& options, Outcome& out);
void run_serve_mixed(const Options& options, Outcome& out);

/// Per-layer sections of the traced run; `budget_s` bounds each one's
/// measured loops.
void trace_campaign_mem(const Options& options, double budget_s, Outcome& out);
void trace_campaign_store(const Options& options, double budget_s, Outcome& out);
void trace_campaign_dist(const Options& options, double budget_s, Outcome& out);
void trace_serve_mixed(const Options& options, double budget_s, Outcome& out);

/// How many times each run repeats its set-up; setup_s is the median.
inline constexpr int kSetupReps = 21;

}  // namespace qrn::bench
