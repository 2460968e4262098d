// qrn-perfdiff - gate a perf_microbench run against a tracked baseline.
//
//   qrn-perfdiff <baseline.json> <current.json> [--threshold PCT]
//                [--min-ns NS] [--scaling FAMILY]
//                [--scaling-tolerance PCT] [--min-ratio R]
//
// Both files are google-benchmark JSON reports (perf_microbench
// --benchmark_out=FILE --benchmark_out_format=json). The comparison table
// is printed to stdout through the report layer; CI runs this after the
// bench job to turn the committed repo-root BENCH_perf.json into an
// enforced regression gate (docs/OBSERVABILITY.md).
//
// Options:
//   --threshold PCT  allowed ns/op increase in percent (default 10);
//                    finite, > 0
//   --min-ns NS      ignore baseline entries faster than NS nanoseconds
//                    (noise floor; default 0)
//   --scaling FAMILY additionally gate the jobs-8 vs jobs-1 items/s ratio
//                    of benchmark FAMILY (e.g. BM_CampaignJobs) against
//                    the baseline's ratio: parallel-efficiency losses fail
//                    even when every per-op time is within threshold
//   --scaling-tolerance PCT  allowed ratio loss vs the baseline ratio
//                    (default 15); finite, > 0
//   --min-ratio R    absolute floor for the current ratio (default 0 =
//                    off; set e.g. 3 on hardware with >= 8 cores). A
//                    floor > 0 requires both reports to carry the same
//                    context.num_cpus (exit 1 otherwise)
//
// Exit-code contract (same shape as the qrn CLI; scripts rely on it):
//   0  every benchmark within threshold (improvements and new entries ok)
//   1  usage or parse error (bad flag value, malformed baseline JSON,
//      --min-ratio across hosts)
//   2  at least one benchmark regressed beyond the threshold or went
//      missing from the current run
//   3  I/O error: an input file cannot be opened or read
#include <fstream>
// qrn-lint: allow(iostream-in-lib) CLI entry point: stdout/stderr is the product surface
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "report/table.h"
#include "tools/parse.h"
#include "tools/perfdiff.h"

namespace {

using qrn::tools::ParseError;

class IoError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

std::string read_file(const std::string& path) {
    std::ifstream f(path);
    if (!f) throw IoError("cannot open " + path);
    std::stringstream buffer;
    buffer << f.rdbuf();
    if (f.bad()) throw IoError("read failed for " + path);
    return buffer.str();
}

qrn::tools::PerfBaseline load_baseline(const std::string& path) {
    const std::string text = read_file(path);
    try {
        return qrn::tools::perf_baseline_from_json(qrn::json::parse(text));
    } catch (const std::exception& error) {
        throw std::runtime_error(path + ": " + error.what());
    }
}

int usage() {
    std::cerr << "usage: qrn-perfdiff <baseline.json> <current.json>\n"
              << "                    [--threshold PCT] [--min-ns NS]\n"
              << "                    [--scaling FAMILY] [--scaling-tolerance PCT]\n"
              << "                    [--min-ratio R]\n"
              << "exit codes: 0 ok, 1 usage/parse error, 2 perf regression,\n"
              << "            3 I/O error\n";
    return 1;
}

std::string format_ns(double ns) {
    return ns > 0.0 ? qrn::report::fixed(ns, 1) : std::string("-");
}

std::string format_delta(const qrn::tools::PerfRow& row) {
    if (row.base_ns <= 0.0 || row.cur_ns <= 0.0) return "-";
    const std::string pct = qrn::report::fixed(row.delta_pct, 1) + "%";
    return row.delta_pct > 0.0 ? "+" + pct : pct;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        std::vector<std::string> positional;
        qrn::tools::PerfDiffOptions options;
        qrn::tools::ScalingOptions scaling;
        std::optional<std::string> scaling_family;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--threshold" || arg == "--min-ns" || arg == "--scaling" ||
                arg == "--scaling-tolerance" || arg == "--min-ratio") {
                if (i + 1 >= argc) {
                    throw ParseError(arg, "", "a value after the flag");
                }
                const std::string value = argv[++i];
                if (arg == "--threshold") {
                    options.threshold_pct = qrn::tools::parse_positive(arg, value);
                } else if (arg == "--min-ns") {
                    options.min_ns = qrn::tools::parse_f64(arg, value);
                    if (options.min_ns < 0.0) {
                        throw ParseError(arg, value, "a non-negative duration in ns");
                    }
                } else if (arg == "--scaling") {
                    if (value.empty()) {
                        throw ParseError(arg, value, "a benchmark family name");
                    }
                    scaling_family = value;
                } else if (arg == "--scaling-tolerance") {
                    scaling.tolerance_pct = qrn::tools::parse_positive(arg, value);
                } else {
                    scaling.min_ratio = qrn::tools::parse_f64(arg, value);
                    if (scaling.min_ratio < 0.0) {
                        throw ParseError(arg, value, "a non-negative ratio");
                    }
                }
            } else if (!arg.empty() && arg[0] == '-') {
                throw ParseError(arg, "",
                                 "a known flag (--threshold, --min-ns, --scaling, "
                                 "--scaling-tolerance, --min-ratio)");
            } else {
                positional.push_back(arg);
            }
        }
        if (positional.size() != 2) return usage();

        const auto baseline = load_baseline(positional[0]);
        const auto current = load_baseline(positional[1]);
        if (scaling.min_ratio > 0.0) {
            qrn::tools::require_same_core_count(baseline, current);
        }
        const auto diff = qrn::tools::perf_diff(baseline, current, options);

        qrn::report::Table table({"benchmark", "base ns/op", "cur ns/op",
                                  "delta", "status"});
        for (std::size_t column : {1ul, 2ul, 3ul}) {
            table.set_align(column, qrn::report::Align::Right);
        }
        for (const auto& row : diff.rows) {
            table.add_row({row.name, format_ns(row.base_ns), format_ns(row.cur_ns),
                           format_delta(row), qrn::tools::to_string(row.status)});
        }
        std::cout << table.render();

        bool scaling_ok = true;
        if (scaling_family) {
            scaling.family = *scaling_family;
            const auto check = qrn::tools::scaling_check(baseline, current, scaling);
            scaling_ok = check.ok;
            const std::string delta_pct =
                qrn::report::fixed(check.delta_pct, 1) + "%";
            std::cout << "qrn-perfdiff: scaling " << scaling.family << ": base "
                      << qrn::report::fixed(check.base.ratio, 2) << "x -> cur "
                      << qrn::report::fixed(check.cur.ratio, 2) << "x ("
                      << (check.delta_pct > 0.0 ? "+" + delta_pct : delta_pct)
                      << ") " << (check.ok ? "ok" : "REGRESSED") << '\n';
            if (check.base_below_floor) {
                std::cerr << "qrn-perfdiff: warning: baseline "
                          << scaling.family << " ratio "
                          << qrn::report::fixed(check.base.ratio, 2)
                          << "x is below the --min-ratio floor of "
                          << qrn::report::fixed(scaling.min_ratio, 2)
                          << "x; the relative gate is anchored to a "
                             "near-flat baseline - re-record the baseline "
                             "on capable hardware\n";
            }
            if (!check.ok) {
                std::cerr << "qrn-perfdiff: " << scaling.family
                          << " parallel efficiency regressed beyond "
                          << qrn::report::fixed(scaling.tolerance_pct, 1)
                          << "% of the baseline ratio";
                if (scaling.min_ratio > 0.0 &&
                    check.cur.ratio < scaling.min_ratio) {
                    std::cerr << " (or fell below the --min-ratio floor of "
                              << qrn::report::fixed(scaling.min_ratio, 2) << "x)";
                }
                std::cerr << '\n';
            }
        }

        if (!diff.ok()) {
            std::cerr << "qrn-perfdiff: " << diff.regressions
                      << " benchmark(s) regressed beyond "
                      << qrn::report::fixed(options.threshold_pct, 1)
                      << "% (or went missing) vs " << positional[0] << '\n';
            return 2;
        }
        if (!scaling_ok) return 2;
        std::cout << "qrn-perfdiff: " << diff.rows.size()
                  << " benchmark(s) within "
                  << qrn::report::fixed(options.threshold_pct, 1)
                  << "% of baseline\n";
        return 0;
    } catch (const IoError& error) {
        std::cerr << "qrn-perfdiff: " << error.what() << '\n';
        return 3;
    } catch (const ParseError& error) {
        std::cerr << "qrn-perfdiff: " << error.what() << '\n';
        return 1;
    } catch (const std::exception& error) {
        std::cerr << "qrn-perfdiff: " << error.what() << '\n';
        return 1;
    }
}
