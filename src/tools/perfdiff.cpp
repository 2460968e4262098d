#include "tools/perfdiff.h"

#include <cmath>
#include <set>
#include <stdexcept>

namespace qrn::tools {

namespace {

double checked_number(const json::Value& entry, const std::string& where,
                      const char* key) {
    if (!entry.contains(key) || !entry.at(key).is_number()) {
        throw std::runtime_error(where + "." + key + ": expected a number");
    }
    const double value = entry.at(key).as_number();
    if (!std::isfinite(value) || value < 0.0) {
        throw std::runtime_error(where + "." + key +
                                 ": must be finite and >= 0 (got " +
                                 std::to_string(value) + ")");
    }
    return value;
}

const std::string& checked_string(const json::Value& entry, const std::string& where,
                                  const char* key) {
    if (!entry.contains(key) || !entry.at(key).is_string()) {
        throw std::runtime_error(where + "." + key + ": expected a string");
    }
    return entry.at(key).as_string();
}

/// Nanoseconds per `time_unit`, as google-benchmark names its units.
double ns_per_unit(const std::string& unit, const std::string& where) {
    if (unit == "ns") return 1.0;
    if (unit == "us") return 1e3;
    if (unit == "ms") return 1e6;
    if (unit == "s") return 1e9;
    throw std::runtime_error(where + ".time_unit: unknown unit '" + unit +
                             "' (expected ns, us, ms or s)");
}

}  // namespace

PerfBaseline perf_baseline_from_json(const json::Value& doc) {
    if (!doc.is_object() || !doc.contains("benchmarks") ||
        !doc.at("benchmarks").is_array()) {
        throw std::runtime_error(
            "not a benchmark report (expected an object with a \"benchmarks\" "
            "array, as google-benchmark writes with --benchmark_out_format=json)");
    }
    PerfBaseline out;
    if (doc.contains("context") && doc.at("context").contains("num_cpus")) {
        const double cpus = checked_number(doc.at("context"), "context", "num_cpus");
        if (cpus < 1.0 || cpus > 1e6 || cpus != std::floor(cpus)) {
            throw std::runtime_error("context.num_cpus: expected a core count");
        }
        out.num_cpus = static_cast<std::uint64_t>(cpus);
    }
    std::set<std::string> seen;
    const auto& entries = doc.at("benchmarks").as_array();
    out.benchmarks.reserve(entries.size());
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::string where = "benchmarks[" + std::to_string(i) + "]";
        const auto& entry = entries[i];
        PerfEntry e;
        e.name = checked_string(entry, where, "name");
        if (e.name.empty()) {
            throw std::runtime_error(where + ".name: must not be empty");
        }
        if (checked_string(entry, where, "run_type") != "iteration") continue;
        if (entry.contains("error_occurred") && entry.at("error_occurred").as_bool()) continue;
        if (!seen.insert(e.name).second) {
            throw std::runtime_error(where + ": duplicate benchmark name '" +
                                     e.name + "'");
        }
        e.ns_per_op = checked_number(entry, where, "real_time") *
                      ns_per_unit(checked_string(entry, where, "time_unit"), where);
        if (entry.contains("items_per_second")) {
            e.items_per_second = checked_number(entry, where, "items_per_second");
        }
        out.benchmarks.push_back(std::move(e));
    }
    return out;
}

void require_same_core_count(const PerfBaseline& baseline,
                             const PerfBaseline& current) {
    if (baseline.num_cpus == 0 || baseline.num_cpus != current.num_cpus) {
        const auto cpus = [](std::uint64_t n) {
            return n == 0 ? std::string("absent") : std::to_string(n);
        };
        throw std::runtime_error(
            "--min-ratio needs both reports from hosts with the same core count "
            "(context.num_cpus: baseline " + cpus(baseline.num_cpus) + ", current " +
            cpus(current.num_cpus) + ")");
    }
}

const char* to_string(PerfStatus status) noexcept {
    switch (status) {
        case PerfStatus::Ok: return "ok";
        case PerfStatus::Improved: return "improved";
        case PerfStatus::Regressed: return "REGRESSED";
        case PerfStatus::Missing: return "MISSING";
        case PerfStatus::New: return "new";
        case PerfStatus::Skipped: return "skipped";
    }
    return "?";
}

PerfDiff perf_diff(const PerfBaseline& baseline, const PerfBaseline& current,
                   const PerfDiffOptions& options) {
    if (!(options.threshold_pct > 0.0) || !std::isfinite(options.threshold_pct)) {
        throw std::invalid_argument(
            "perf_diff: threshold_pct must be finite and > 0 (got " +
            std::to_string(options.threshold_pct) + ")");
    }
    if (options.min_ns < 0.0 || !std::isfinite(options.min_ns)) {
        throw std::invalid_argument(
            "perf_diff: min_ns must be finite and >= 0 (got " +
            std::to_string(options.min_ns) + ")");
    }
    PerfDiff out;
    std::set<std::string> in_baseline;
    for (const PerfEntry& base : baseline.benchmarks) {
        in_baseline.insert(base.name);
        PerfRow row;
        row.name = base.name;
        row.base_ns = base.ns_per_op;
        const PerfEntry* cur = nullptr;
        for (const PerfEntry& c : current.benchmarks) {
            if (c.name == base.name) {
                cur = &c;
                break;
            }
        }
        if (cur == nullptr) {
            // A benchmark that vanished is a hole in the perf evidence; it
            // gates exactly like a slowdown so coverage cannot rot away.
            row.status = PerfStatus::Missing;
            ++out.regressions;
            out.rows.push_back(std::move(row));
            continue;
        }
        row.cur_ns = cur->ns_per_op;
        row.delta_pct = base.ns_per_op > 0.0
                            ? (cur->ns_per_op - base.ns_per_op) / base.ns_per_op * 100.0
                            : 0.0;
        if (base.ns_per_op < options.min_ns) {
            row.status = PerfStatus::Skipped;
        } else if (row.delta_pct > options.threshold_pct) {
            row.status = PerfStatus::Regressed;
            ++out.regressions;
        } else if (row.delta_pct < -options.threshold_pct) {
            row.status = PerfStatus::Improved;
        } else {
            row.status = PerfStatus::Ok;
        }
        out.rows.push_back(std::move(row));
    }
    for (const PerfEntry& cur : current.benchmarks) {
        if (in_baseline.count(cur.name) != 0) continue;
        PerfRow row;
        row.name = cur.name;
        row.cur_ns = cur.ns_per_op;
        row.status = PerfStatus::New;
        out.rows.push_back(std::move(row));
    }
    return out;
}

namespace {

/// items/s of `<family>/<arg>` in `doc`, preferring the UseRealTime name.
double items_per_second_of(const PerfBaseline& doc, const std::string& family,
                           const char* arg) {
    const std::string with_real_time = family + "/" + arg + "/real_time";
    const std::string plain = family + "/" + arg;
    const PerfEntry* found = nullptr;
    for (const PerfEntry& e : doc.benchmarks) {
        if (e.name == with_real_time) {
            found = &e;
            break;
        }
        if (e.name == plain && found == nullptr) found = &e;
    }
    if (found == nullptr) {
        throw std::runtime_error("scaling check: benchmark '" + plain +
                                 "' (or its /real_time variant) not found");
    }
    if (!(found->items_per_second > 0.0)) {
        throw std::runtime_error("scaling check: '" + found->name +
                                 "' has no positive items_per_second");
    }
    return found->items_per_second;
}

}  // namespace

ScalingRatio scaling_ratio(const PerfBaseline& doc, const std::string& family) {
    ScalingRatio out;
    out.jobs1_items_per_second = items_per_second_of(doc, family, "1");
    out.jobs8_items_per_second = items_per_second_of(doc, family, "8");
    out.ratio = out.jobs8_items_per_second / out.jobs1_items_per_second;
    return out;
}

ScalingCheck scaling_check(const PerfBaseline& baseline,
                           const PerfBaseline& current,
                           const ScalingOptions& options) {
    if (!(options.tolerance_pct > 0.0) || !std::isfinite(options.tolerance_pct)) {
        throw std::invalid_argument(
            "scaling_check: tolerance_pct must be finite and > 0");
    }
    if (options.min_ratio < 0.0 || !std::isfinite(options.min_ratio)) {
        throw std::invalid_argument(
            "scaling_check: min_ratio must be finite and >= 0");
    }
    ScalingCheck out;
    out.base = scaling_ratio(baseline, options.family);
    out.cur = scaling_ratio(current, options.family);
    out.delta_pct = (out.cur.ratio - out.base.ratio) / out.base.ratio * 100.0;
    out.ok = out.delta_pct >= -options.tolerance_pct &&
             (options.min_ratio == 0.0 || out.cur.ratio >= options.min_ratio);
    out.base_below_floor =
        options.min_ratio > 0.0 && out.base.ratio < options.min_ratio;
    return out;
}

}  // namespace qrn::tools
