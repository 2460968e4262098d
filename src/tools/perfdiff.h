// Perf-baseline comparison: the library behind qrn-perfdiff.
//
// perf_microbench is a plain google-benchmark binary; run with
// `--benchmark_out=FILE --benchmark_out_format=json` it writes the
// library's own JSON report. The repo-root BENCH_perf.json, in that
// format, is the tracked baseline. This module parses two such documents
// and classifies every benchmark's drift against configurable thresholds,
// so CI can fail a PR that regresses a hot path - the "measurably faster"
// mandate needs a measured gate, not a gitignored file. See
// docs/OBSERVABILITY.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "qrn/json.h"

namespace qrn::tools {

/// One benchmark's measurement from a google-benchmark JSON report.
struct PerfEntry {
    std::string name;
    double ns_per_op = 0.0;         ///< real_time, scaled to nanoseconds.
    double items_per_second = 0.0;  ///< 0 when the benchmark reports none.
};

/// A parsed report: its per-iteration rows in document order.
struct PerfBaseline {
    std::vector<PerfEntry> benchmarks;
    std::uint64_t num_cpus = 0;  ///< context.num_cpus; 0 when absent.
};

/// Parses google-benchmark's JSON report
/// (`{"context":{...},"benchmarks":[{"name":...,"run_type":"iteration",
/// "real_time":...,"time_unit":"ns",...},...]}`). Reads `name`,
/// `real_time` scaled from `time_unit` (ns, us, ms or s) to nanoseconds,
/// and `items_per_second`; rows whose `run_type` is not "iteration"
/// (aggregates of repeated runs) and rows that report `error_occurred`
/// are skipped. Throws std::runtime_error naming the offending JSON path
/// on malformed input (missing keys, wrong kinds, an unknown time unit,
/// non-finite or negative times, duplicate benchmark names, a
/// non-positive context.num_cpus).
[[nodiscard]] PerfBaseline perf_baseline_from_json(const json::Value& doc);

/// An absolute throughput floor (qrn-perfdiff --min-ratio) only means
/// something on comparable hardware. Throws std::runtime_error unless
/// both reports carry context.num_cpus and the two counts agree.
void require_same_core_count(const PerfBaseline& baseline,
                             const PerfBaseline& current);

/// Comparison tuning.
struct PerfDiffOptions {
    /// Allowed ns_per_op increase over the baseline, in percent, before a
    /// benchmark counts as regressed.
    double threshold_pct = 10.0;
    /// Baseline entries faster than this are compared but never fail the
    /// gate: sub-noise-floor benchmarks jitter by scheduler luck alone.
    double min_ns = 0.0;
};

/// Verdict for one benchmark.
enum class PerfStatus {
    Ok,        ///< Within the threshold.
    Improved,  ///< Faster than baseline beyond the threshold.
    Regressed, ///< Slower than baseline beyond the threshold (fails).
    Missing,   ///< In the baseline but not the current run (fails).
    New,       ///< In the current run but not the baseline (informational).
    Skipped,   ///< Below min_ns: reported, never gating.
};

[[nodiscard]] const char* to_string(PerfStatus status) noexcept;

/// One row of the comparison: baseline order first, then new benchmarks
/// in current-run order.
struct PerfRow {
    std::string name;
    double base_ns = 0.0;   ///< 0 for New rows.
    double cur_ns = 0.0;    ///< 0 for Missing rows.
    double delta_pct = 0.0; ///< (cur - base) / base * 100; 0 when undefined.
    PerfStatus status = PerfStatus::Ok;
};

/// The full comparison. `regressions` counts Regressed + Missing rows;
/// the gate passes iff it is zero.
struct PerfDiff {
    std::vector<PerfRow> rows;
    std::size_t regressions = 0;

    [[nodiscard]] bool ok() const noexcept { return regressions == 0; }
};

/// Compares `current` against `baseline` under `options`.
[[nodiscard]] PerfDiff perf_diff(const PerfBaseline& baseline,
                                 const PerfBaseline& current,
                                 const PerfDiffOptions& options);

// ---- scaling-efficiency gate -------------------------------------------
//
// Per-op thresholds cannot see a benchmark that is fast at jobs=1 but
// refuses to scale: BM_CampaignJobs was flat at every jobs value and every
// row still read "ok". The scaling check compares the jobs-8 vs jobs-1
// items/s *ratio* of the benchmark family between baseline and current
// run, so a change that destroys parallel efficiency gates even when the
// serial cost is unchanged. The ratio is compared against the baseline's
// own ratio (not an absolute target) so the gate is meaningful on any
// hardware, including single-core runners where 8 jobs cannot beat 1; an
// optional minimum ratio enforces an absolute floor on capable hardware.

/// The jobs-8 vs jobs-1 throughput ratio of one report.
struct ScalingRatio {
    double jobs1_items_per_second = 0.0;
    double jobs8_items_per_second = 0.0;
    double ratio = 0.0;  ///< jobs8 / jobs1.
};

/// Options of the scaling check.
struct ScalingOptions {
    /// Benchmark family; entries `<family>/1[/real_time]` and
    /// `<family>/8[/real_time]` must exist with items_per_second.
    std::string family = "BM_CampaignJobs";
    /// Allowed ratio loss vs the baseline ratio, in percent.
    double tolerance_pct = 15.0;
    /// Absolute floor for the current ratio (0 disables the floor).
    double min_ratio = 0.0;
};

/// Verdict of the scaling check.
struct ScalingCheck {
    ScalingRatio base;
    ScalingRatio cur;
    double delta_pct = 0.0;  ///< (cur.ratio - base.ratio) / base.ratio * 100.
    bool ok = false;
    /// With min_ratio > 0: the BASELINE ratio is itself below the floor.
    /// The gate then anchors to a near-flat baseline and the relative
    /// tolerance is vacuous - the baseline should be re-recorded on
    /// capable hardware. Diagnosed, not failed: the stale baseline is a
    /// repo-state problem, not a regression in the change under test.
    bool base_below_floor = false;
};

/// Extracts the family's jobs-8 / jobs-1 items/s ratio. Throws
/// std::runtime_error when either entry is absent or lacks a positive
/// items_per_second.
[[nodiscard]] ScalingRatio scaling_ratio(const PerfBaseline& doc,
                                         const std::string& family);

/// Gates `current`'s scaling ratio against `baseline`'s: fails when the
/// ratio regressed more than tolerance_pct, or (with min_ratio > 0) when
/// the current ratio is below the absolute floor.
[[nodiscard]] ScalingCheck scaling_check(const PerfBaseline& baseline,
                                         const PerfBaseline& current,
                                         const ScalingOptions& options);

}  // namespace qrn::tools
