// Perf-baseline diff semantics: the threshold gate CI relies on. Library
// tests pin classification (ok/improved/regressed/missing/new/skipped)
// and the strict baseline grammar; binary tests pin the qrn-perfdiff
// exit-code contract the CI bench job scripts against.
#include "tools/perfdiff.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "qrn/json.h"

namespace qrn::tools {
namespace {

PerfBaseline baseline_of(const std::string& json_text) {
    return perf_baseline_from_json(qrn::json::parse(json_text));
}

PerfEntry entry(const std::string& name, double ns) {
    PerfEntry e;
    e.name = name;
    e.ns_per_op = ns;
    return e;
}

const PerfRow* row_named(const PerfDiff& diff, const std::string& name) {
    for (const PerfRow& row : diff.rows) {
        if (row.name == name) return &row;
    }
    return nullptr;
}

// ---- baseline grammar --------------------------------------------------

TEST(PerfBaseline, ParsesTheMicrobenchFormat) {
    // google-benchmark's own JSON report, as perf_microbench writes it
    // with --benchmark_out_format=json (fields qrn-perfdiff ignores
    // trimmed). Times are scaled from each row's time_unit to ns. Only
    // measured iteration rows count: the mean/median rows that
    // --benchmark_repetitions adds are skipped, and so is an errored run,
    // which then reads as missing and gates.
    const auto baseline = baseline_of(
        R"({"context":{"num_cpus":4,"library_build_type":"release"},
            "benchmarks":[
             {"name":"BM_A","run_type":"iteration","iterations":10,
              "real_time":100.0,"cpu_time":99.0,"time_unit":"ns",
              "items_per_second":1e7},
             {"name":"BM_A_mean","run_type":"aggregate","aggregate_name":"mean",
              "real_time":101.0,"time_unit":"ns"},
             {"name":"BM_A","run_type":"aggregate","aggregate_name":"median",
              "real_time":99.0,"time_unit":"ns"},
             {"name":"BM_Us","run_type":"iteration","real_time":2.5,"time_unit":"us"},
             {"name":"BM_Ms","run_type":"iteration","real_time":1.5,"time_unit":"ms"},
             {"name":"BM_S","run_type":"iteration","real_time":0.25,"time_unit":"s"},
             {"name":"BM_E","run_type":"iteration","error_occurred":true,
              "error_message":"boom","real_time":0.0,"time_unit":"ns"}]})");
    ASSERT_EQ(baseline.benchmarks.size(), 4u);
    EXPECT_EQ(baseline.benchmarks[0].name, "BM_A");
    EXPECT_DOUBLE_EQ(baseline.benchmarks[0].ns_per_op, 100.0);
    EXPECT_DOUBLE_EQ(baseline.benchmarks[0].items_per_second, 1e7);
    EXPECT_EQ(baseline.benchmarks[1].name, "BM_Us");
    EXPECT_DOUBLE_EQ(baseline.benchmarks[1].ns_per_op, 2500.0);
    EXPECT_DOUBLE_EQ(baseline.benchmarks[2].ns_per_op, 1.5e6);
    EXPECT_DOUBLE_EQ(baseline.benchmarks[3].ns_per_op, 2.5e8);
    EXPECT_EQ(baseline.num_cpus, 4u);
    EXPECT_EQ(baseline_of(R"({"benchmarks":[]})").num_cpus, 0u);  // no context
}

TEST(PerfBaseline, RejectsMalformedDocuments) {
    EXPECT_THROW(baseline_of(R"([1,2,3])"), std::runtime_error);
    EXPECT_THROW(baseline_of(R"({"context":{}})"), std::runtime_error);
    // No name, an empty name, no run_type.
    EXPECT_THROW(baseline_of(R"({"benchmarks":[
                   {"run_type":"iteration","real_time":1.0,"time_unit":"ns"}]})"),
                 std::runtime_error);
    EXPECT_THROW(baseline_of(R"({"benchmarks":[
                   {"name":"","run_type":"iteration","real_time":1.0,"time_unit":"ns"}]})"),
                 std::runtime_error);
    EXPECT_THROW(baseline_of(R"({"benchmarks":[
                   {"name":"BM_A","real_time":1.0,"time_unit":"ns"}]})"),
                 std::runtime_error);
    // The pre-google-benchmark format: no real_time.
    EXPECT_THROW(baseline_of(R"({"benchmarks":[
                   {"name":"BM_A","run_type":"iteration","ns_per_op":1.0}]})"),
                 std::runtime_error);
    EXPECT_THROW(baseline_of(R"({"benchmarks":[
                   {"name":"BM_A","run_type":"iteration","real_time":-1.0,"time_unit":"ns"}]})"),
                 std::runtime_error);
    // A time without a unit, or in a unit the reader does not know.
    EXPECT_THROW(baseline_of(R"({"benchmarks":[
                   {"name":"BM_A","run_type":"iteration","real_time":1.0}]})"),
                 std::runtime_error);
    EXPECT_THROW(baseline_of(R"({"benchmarks":[
                   {"name":"BM_A","run_type":"iteration","real_time":1.0,"time_unit":"ps"}]})"),
                 std::runtime_error);
    // Duplicate names would make the diff ambiguous.
    EXPECT_THROW(baseline_of(R"({"benchmarks":[
                   {"name":"BM_A","run_type":"iteration","real_time":1.0,"time_unit":"ns"},
                   {"name":"BM_A","run_type":"iteration","real_time":2.0,"time_unit":"ns"}]})"),
                 std::runtime_error);
    // A core count must be a positive integer.
    for (const std::string cpus : {"0", "-4", "2.5", "\"4\""}) {
        EXPECT_THROW(baseline_of(R"({"context":{"num_cpus":)" + cpus +
                                 R"(},"benchmarks":[]})"),
                     std::runtime_error)
            << cpus;
    }
}

// ---- diff classification -----------------------------------------------

TEST(PerfDiff, ClassifiesEveryStatus) {
    PerfBaseline base;
    base.benchmarks = {entry("ok", 100), entry("regressed", 100),
                       entry("improved", 100), entry("missing", 100),
                       entry("noise", 5)};
    PerfBaseline cur;
    cur.benchmarks = {entry("ok", 105), entry("regressed", 150),
                      entry("improved", 50), entry("noise", 50),
                      entry("brand_new", 10)};
    PerfDiffOptions options;
    options.threshold_pct = 10.0;
    options.min_ns = 10.0;  // "noise" sits below the floor
    const auto diff = perf_diff(base, cur, options);

    EXPECT_EQ(row_named(diff, "ok")->status, PerfStatus::Ok);
    EXPECT_EQ(row_named(diff, "regressed")->status, PerfStatus::Regressed);
    EXPECT_EQ(row_named(diff, "improved")->status, PerfStatus::Improved);
    EXPECT_EQ(row_named(diff, "missing")->status, PerfStatus::Missing);
    EXPECT_EQ(row_named(diff, "noise")->status, PerfStatus::Skipped);
    EXPECT_EQ(row_named(diff, "brand_new")->status, PerfStatus::New);
    // Regressed + missing both gate; improved/new/skipped do not.
    EXPECT_EQ(diff.regressions, 2u);
    EXPECT_FALSE(diff.ok());
}

TEST(PerfDiff, ThresholdBoundaryIsExclusive) {
    // Exactly +threshold% must pass: the gate fires on "beyond", so a
    // run landing on the line does not flap.
    PerfBaseline base;
    base.benchmarks = {entry("BM", 100)};
    PerfBaseline cur;
    cur.benchmarks = {entry("BM", 110)};
    PerfDiffOptions options;
    options.threshold_pct = 10.0;
    const auto diff = perf_diff(base, cur, options);
    EXPECT_EQ(diff.rows[0].status, PerfStatus::Ok);
    EXPECT_TRUE(diff.ok());
}

TEST(PerfDiff, DeltaPercentIsRelativeToBaseline) {
    PerfBaseline base;
    base.benchmarks = {entry("BM", 200)};
    PerfBaseline cur;
    cur.benchmarks = {entry("BM", 250)};
    const auto diff = perf_diff(base, cur, PerfDiffOptions{});
    EXPECT_DOUBLE_EQ(diff.rows[0].delta_pct, 25.0);
}

TEST(PerfDiff, IdenticalBaselinesAreClean) {
    PerfBaseline base;
    base.benchmarks = {entry("BM_A", 100), entry("BM_B", 42)};
    const auto diff = perf_diff(base, base, PerfDiffOptions{});
    EXPECT_TRUE(diff.ok());
    EXPECT_EQ(diff.regressions, 0u);
    for (const auto& row : diff.rows) EXPECT_EQ(row.status, PerfStatus::Ok);
}

TEST(PerfDiff, RowsKeepBaselineOrderWithNewAppended) {
    PerfBaseline base;
    base.benchmarks = {entry("b", 1), entry("a", 1)};
    PerfBaseline cur;
    cur.benchmarks = {entry("zz_new", 1), entry("a", 1), entry("b", 1)};
    const auto diff = perf_diff(base, cur, PerfDiffOptions{});
    ASSERT_EQ(diff.rows.size(), 3u);
    EXPECT_EQ(diff.rows[0].name, "b");
    EXPECT_EQ(diff.rows[1].name, "a");
    EXPECT_EQ(diff.rows[2].name, "zz_new");
}

TEST(PerfDiff, RejectsInvalidOptions) {
    const PerfBaseline empty;
    PerfDiffOptions options;
    options.threshold_pct = 0.0;
    EXPECT_THROW(perf_diff(empty, empty, options), std::invalid_argument);
    options.threshold_pct = 10.0;
    options.min_ns = -1.0;
    EXPECT_THROW(perf_diff(empty, empty, options), std::invalid_argument);
}

// ---- scaling-efficiency gate -------------------------------------------

/// A baseline with a BM_CampaignJobs family whose jobs-8 throughput is
/// `ratio` times the jobs-1 throughput (google-benchmark UseRealTime
/// naming: `<family>/<arg>/real_time`).
PerfBaseline scaling_baseline(double ratio) {
    PerfEntry jobs1 = entry("BM_CampaignJobs/1/real_time", 100.0);
    jobs1.items_per_second = 1e6;
    PerfEntry jobs8 = entry("BM_CampaignJobs/8/real_time", 100.0);
    jobs8.items_per_second = 1e6 * ratio;
    PerfBaseline out;
    out.benchmarks = {jobs1, jobs8};
    return out;
}

TEST(ScalingRatio, ComputesJobs8OverJobs1) {
    const auto ratio = scaling_ratio(scaling_baseline(3.5), "BM_CampaignJobs");
    EXPECT_DOUBLE_EQ(ratio.jobs1_items_per_second, 1e6);
    EXPECT_DOUBLE_EQ(ratio.jobs8_items_per_second, 3.5e6);
    EXPECT_DOUBLE_EQ(ratio.ratio, 3.5);
}

TEST(ScalingRatio, PrefersRealTimeNameOverPlain) {
    // A plain-named entry with garbage throughput must lose to /real_time.
    auto doc = scaling_baseline(2.0);
    PerfEntry decoy = entry("BM_CampaignJobs/1", 100.0);
    decoy.items_per_second = 1.0;
    doc.benchmarks.push_back(decoy);
    const auto ratio = scaling_ratio(doc, "BM_CampaignJobs");
    EXPECT_DOUBLE_EQ(ratio.jobs1_items_per_second, 1e6);
}

TEST(ScalingRatio, ThrowsOnMissingOrUnmeasuredEntries) {
    PerfBaseline empty;
    EXPECT_THROW(scaling_ratio(empty, "BM_CampaignJobs"), std::runtime_error);
    // Present but without items_per_second: the ratio would be undefined.
    PerfBaseline no_items;
    no_items.benchmarks = {entry("BM_CampaignJobs/1/real_time", 100.0),
                           entry("BM_CampaignJobs/8/real_time", 100.0)};
    EXPECT_THROW(scaling_ratio(no_items, "BM_CampaignJobs"), std::runtime_error);
}

TEST(ScalingCheck, PassesWhenRatioHoldsOrImproves) {
    const ScalingOptions options;
    EXPECT_TRUE(
        scaling_check(scaling_baseline(3.0), scaling_baseline(3.0), options).ok);
    const auto improved =
        scaling_check(scaling_baseline(3.0), scaling_baseline(4.0), options);
    EXPECT_TRUE(improved.ok);
    EXPECT_GT(improved.delta_pct, 0.0);
}

TEST(ScalingCheck, FailsWhenRatioRegressesBeyondTolerance) {
    ScalingOptions options;
    options.tolerance_pct = 15.0;
    // 3.0 -> 2.0 is a -33% efficiency loss: gates.
    const auto check =
        scaling_check(scaling_baseline(3.0), scaling_baseline(2.0), options);
    EXPECT_FALSE(check.ok);
    EXPECT_NEAR(check.delta_pct, -33.3, 0.1);
    // 3.0 -> 2.7 is -10%: within tolerance.
    EXPECT_TRUE(
        scaling_check(scaling_baseline(3.0), scaling_baseline(2.7), options).ok);
}

TEST(ScalingCheck, MinRatioIsAnAbsoluteFloor) {
    ScalingOptions options;
    options.min_ratio = 3.0;
    // Ratio held vs baseline but sits below the floor: gates anyway.
    EXPECT_FALSE(
        scaling_check(scaling_baseline(1.0), scaling_baseline(1.0), options).ok);
    EXPECT_TRUE(
        scaling_check(scaling_baseline(3.0), scaling_baseline(3.1), options).ok);
}

TEST(ScalingCheck, FlagsBaselineBelowTheFloor) {
    // A baseline recorded on hardware where jobs-8 barely beats jobs-1
    // (e.g. a single-core box) anchors the relative gate to a near-flat
    // ratio. The check must diagnose that the BASELINE itself sits under
    // the floor so the CLI can tell the operator to re-record it.
    ScalingOptions options;
    options.min_ratio = 2.0;
    const auto stale =
        scaling_check(scaling_baseline(1.08), scaling_baseline(2.5), options);
    EXPECT_TRUE(stale.ok);  // current run clears the floor...
    EXPECT_TRUE(stale.base_below_floor);  // ...but the baseline is stale.
    const auto healthy =
        scaling_check(scaling_baseline(3.0), scaling_baseline(3.0), options);
    EXPECT_FALSE(healthy.base_below_floor);
    // Without a floor there is nothing to compare the baseline against.
    ScalingOptions no_floor;
    EXPECT_FALSE(scaling_check(scaling_baseline(1.08), scaling_baseline(1.08),
                               no_floor)
                     .base_below_floor);
}

TEST(ScalingCheck, RejectsInvalidOptions) {
    const auto doc = scaling_baseline(1.0);
    ScalingOptions options;
    options.tolerance_pct = 0.0;
    EXPECT_THROW(scaling_check(doc, doc, options), std::invalid_argument);
    options.tolerance_pct = 15.0;
    options.min_ratio = -1.0;
    EXPECT_THROW(scaling_check(doc, doc, options), std::invalid_argument);
}

// ---- qrn-perfdiff binary: exit-code contract ---------------------------

#ifndef QRN_PERFDIFF_PATH
#error "QRN_PERFDIFF_PATH must be defined by the build"
#endif

int run_perfdiff(const std::string& arguments) {
    const std::string command =
        std::string(QRN_PERFDIFF_PATH) + " " + arguments + " >/dev/null 2>&1";
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("popen failed");
    std::array<char, 256> buffer{};
    while (fread(buffer.data(), 1, buffer.size(), pipe) > 0) {
    }
    const int status = pclose(pipe);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string run_perfdiff_output(const std::string& arguments) {
    const std::string command =
        std::string(QRN_PERFDIFF_PATH) + " " + arguments + " 2>&1";
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("popen failed");
    std::string out;
    std::array<char, 256> buffer{};
    std::size_t n = 0;
    while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
        out.append(buffer.data(), n);
    }
    pclose(pipe);
    return out;
}

std::string write_temp_json(const std::string& name, const std::string& text) {
    const std::string path = ::testing::TempDir() + "qrn_perfdiff_" + name;
    std::ofstream f(path);
    f << text;
    return path;
}

/// A google-benchmark report of `rows`, with context.num_cpus when
/// `num_cpus` is non-zero.
std::string report(const std::string& rows, int num_cpus = 0) {
    const std::string context =
        num_cpus > 0 ? R"("context":{"num_cpus":)" + std::to_string(num_cpus) + "},"
                     : "";
    return "{" + context + R"("benchmarks":[)" + rows + "]}";
}

/// One iteration row timed in nanoseconds.
std::string row(const std::string& name, double ns, const std::string& extra = "") {
    return R"({"name":")" + name + R"(","run_type":"iteration","real_time":)" +
           std::to_string(ns) + R"(,"time_unit":"ns")" + extra + "}";
}

TEST(PerfDiffCli, ExitCodesMatchTheContract) {
    const std::string base = write_temp_json("base.json", report(row("BM_A", 100.0)));
    const std::string slower =
        write_temp_json("slower.json", report(row("BM_A", 200.0)));
    const std::string bad = write_temp_json("bad.json", R"({"oops":true})");

    EXPECT_EQ(run_perfdiff(base + " " + base), 0);                    // ok
    EXPECT_EQ(run_perfdiff(base + " " + slower), 2);                  // regression
    EXPECT_EQ(run_perfdiff(base + " " + slower + " --threshold 150"), 0);
    EXPECT_EQ(run_perfdiff(base + " " + bad), 1);                     // parse error
    EXPECT_EQ(run_perfdiff(base + " " + base + " --threshold bogus"), 1);
    EXPECT_EQ(run_perfdiff(base), 1);                                 // usage
    EXPECT_EQ(run_perfdiff(base + " /nonexistent-qrn/cur.json"), 3);  // I/O
}

/// A BM_CampaignJobs family whose jobs-8 throughput is `ratio` times the
/// jobs-1 throughput, measured on a `num_cpus`-core host.
std::string scaling_report(double ratio, int num_cpus = 4) {
    return report(row("BM_CampaignJobs/1/real_time", 100.0, R"(,"items_per_second":1e6)") +
                      "," +
                      row("BM_CampaignJobs/8/real_time", 100.0,
                          R"(,"items_per_second":)" + std::to_string(1e6 * ratio)),
                  num_cpus);
}

TEST(PerfDiffCli, ScalingFlagGatesEfficiencyRegressions) {
    const std::string base = write_temp_json("scale_base.json", scaling_report(3.0));
    const std::string held = write_temp_json("scale_held.json", scaling_report(2.9));
    const std::string lost = write_temp_json("scale_lost.json", scaling_report(1.5));

    const std::string flag = " --scaling BM_CampaignJobs";
    EXPECT_EQ(run_perfdiff(base + " " + held + flag), 0);
    EXPECT_EQ(run_perfdiff(base + " " + lost + flag), 2);
    EXPECT_EQ(run_perfdiff(base + " " + lost + flag + " --scaling-tolerance 60"),
              0);
    // The absolute floor gates even a ratio that held vs baseline.
    EXPECT_EQ(run_perfdiff(base + " " + held + flag + " --min-ratio 3.5"), 2);
    // Family absent from the documents: a parse-level error, not a crash.
    EXPECT_EQ(run_perfdiff(base + " " + held + " --scaling BM_Nope"), 1);
    EXPECT_EQ(run_perfdiff(base + " " + held + flag + " --min-ratio -1"), 1);
}

TEST(PerfDiffCli, MinRatioRefusesReportsFromDifferentHosts) {
    const std::string four = write_temp_json("host_four.json", scaling_report(3.0, 4));
    const std::string eight = write_temp_json("host_eight.json", scaling_report(3.0, 8));
    const std::string unknown =
        write_temp_json("host_unknown.json", scaling_report(3.0, 0));
    const std::string flag = " --scaling BM_CampaignJobs --min-ratio 2.0";

    EXPECT_EQ(run_perfdiff(four + " " + four + flag), 0);
    EXPECT_EQ(run_perfdiff(four + " " + eight + flag), 1);
    EXPECT_EQ(run_perfdiff(unknown + " " + four + flag), 1);
    EXPECT_EQ(run_perfdiff(four + " " + unknown + flag), 1);
    EXPECT_NE(run_perfdiff_output(four + " " + eight + flag).find("same core count"),
              std::string::npos);
    // Without a floor the relative gates still compare across hosts.
    EXPECT_EQ(run_perfdiff(unknown + " " + eight + " --scaling BM_CampaignJobs"), 0);
}

TEST(PerfDiffCli, WarnsWhenBaselineRatioIsBelowTheFloor) {
    const std::string stale = write_temp_json("floor_stale.json", scaling_report(1.08));
    const std::string good = write_temp_json("floor_good.json", scaling_report(2.5));
    const std::string flag = " --scaling BM_CampaignJobs --min-ratio 2.0";

    // Current run clears the floor, so the gate passes - but the warning
    // must still call out the near-flat baseline the gate is anchored to.
    EXPECT_EQ(run_perfdiff(stale + " " + good + flag), 0);
    const std::string warned = run_perfdiff_output(stale + " " + good + flag);
    EXPECT_NE(warned.find("warning"), std::string::npos) << warned;
    EXPECT_NE(warned.find("re-record the baseline"), std::string::npos) << warned;
    // A healthy baseline stays quiet.
    const std::string quiet = run_perfdiff_output(good + " " + good + flag);
    EXPECT_EQ(quiet.find("warning"), std::string::npos) << quiet;
}

}  // namespace
}  // namespace qrn::tools
