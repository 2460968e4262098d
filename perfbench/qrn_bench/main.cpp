// qrn-bench: one end-to-end benchmark program over the toolkit's runtime
// layers (sim, exec, store, sched, serve, qrn). perfbench/run.py builds it
// and passes its arguments through:
//
//   qrn-bench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR [--trace-out PATH] [--size full|tiny]
//
// --trace 0 measures the workload's end-to-end metrics with tracing off.
// --trace 1 first runs the workload untraced and traced for an eighth of
// the window each (the difference is the tracing overhead), then runs
// every layer's traced section for a sixth of the window each and reports
// the per-layer metrics, writing the span trace to --trace-out. The last stdout line is the JSON result;
// lines before it starting with '#' are for people. Exit 0 when every
// output check passed, 1 when one failed, 2 on bad arguments.
//
// `qrn-bench sched worker --store DIR --attached` is the worker mode the
// distributed workload's coordinator execs.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <thread>

#include "bench.h"
#include "sched/worker.h"

namespace {

using namespace qrn::bench;

using RunFn = void (*)(const Options&, Outcome&);
using TraceFn = void (*)(const Options&, double, Outcome&);

struct Workload {
    RunFn run;
    TraceFn trace;
};

const std::map<std::string, Workload>& workloads() {
    static const std::map<std::string, Workload> table = {
        {"campaign_mem", {run_campaign_mem, trace_campaign_mem}},
        {"campaign_store", {run_campaign_store, trace_campaign_store}},
        {"campaign_dist", {run_campaign_dist, trace_campaign_dist}},
        {"serve_mixed", {run_serve_mixed, trace_serve_mixed}},
    };
    return table;
}

int worker_main(int argc, char** argv) {
    qrn::sched::WorkerOptions options;
    bool attached = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--store" && i + 1 < argc) {
            options.store_dir = argv[++i];
        } else if (arg == "--attached") {
            attached = true;
        }
    }
    if (!attached || options.store_dir.empty()) {
        std::cerr << "qrn-bench: worker mode needs --store DIR --attached\n";
        return 1;
    }
    try {
        return qrn::sched::run_attached_worker(std::cin, std::cout, options);
    } catch (const std::exception& error) {
        std::cerr << "qrn-bench worker: " << error.what() << '\n';
        return 3;
    }
}

int usage(const std::string& why) {
    std::cerr << "qrn-bench: " << why << "\n"
              << "usage: qrn-bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR [--trace-out PATH] [--size full|tiny]\n";
    return 2;
}

double metric_value(const Outcome& outcome, const std::string& name) {
    for (const auto& m : outcome.metrics()) {
        if (m.name == name) return m.value;
    }
    return 0.0;
}

/// Moves `from`'s operations and failures into `into`.
void absorb(Outcome& into, const Outcome& from) {
    into.ops(from.attempted());
    for (std::uint64_t i = 0; i < from.failed(); ++i) {
        into.fail(i < from.errors().size() ? from.errors()[i] : from.errors().back());
    }
}

void print_metrics(const char* heading, const Outcome& outcome) {
    std::printf("# %s\n", heading);
    for (const auto& m : outcome.metrics()) {
        std::printf("#   %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
}

std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') out += '\\';
        out += c;
    }
    return out;
}

/// The per-layer run: overhead comparison, then every traced section.
void traced_run(const Options& options, const Workload& selected, Outcome& out) {
    Options eighth = options;
    eighth.seconds = options.seconds / 8;
    Outcome plain;
    Outcome traced;
    selected.run(eighth, plain);
    set_tracing(true);
    {
        const SpanScope span("bench.workload." + options.workload);
        selected.run(eighth, traced);
    }
    absorb(out, plain);
    absorb(out, traced);
    print_metrics("untraced end-to-end", plain);
    print_metrics("traced end-to-end", traced);

    for (const auto& [name, workload] : workloads()) {
        const SpanScope span("bench.layers." + name);
        workload.trace(options, options.seconds / 6, out);
    }
    const double plain_rate = metric_value(plain, "primary_per_s");
    const double traced_rate = metric_value(traced, "primary_per_s");
    out.metric("bench.trace_overhead_pct",
               traced_rate > 0 ? (plain_rate / traced_rate - 1.0) * 100.0 : 0.0, "%");

    const auto spans = tracer().spans();
    out.metric("bench.spans", static_cast<double>(spans.size()), "count");
    std::printf("# spans: %-40s %8s %12s %12s\n", "name", "count", "total_ms", "self_ms");
    for (const auto& totals : span_totals(spans)) {
        std::printf("#        %-40s %8llu %12.3f %12.3f\n", totals.name.c_str(),
                    static_cast<unsigned long long>(totals.count), totals.total_s * 1e3,
                    totals.self_s * 1e3);
    }
    if (!options.trace_out.empty()) {
        auto metadata = host_context(options);
        metadata.emplace_back("workload", options.workload);
        metadata.emplace_back("seed", std::to_string(options.seed));
        tracer().write_chrome_trace(options.trace_out, metadata);
        std::printf("# span trace: %s\n", options.trace_out.c_str());
    }
}

}  // namespace

int main(int argc, char** argv) {
    if (argc >= 3 && std::string(argv[1]) == "sched" && std::string(argv[2]) == "worker") {
        return worker_main(argc, argv);
    }

    Options options;
    std::string size = "full";
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (i + 1 >= argc) return usage("missing value for " + arg);
            const std::string value = argv[++i];
            if (arg == "--workload") {
                options.workload = value;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value);
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value);
            } else if (arg == "--trace") {
                if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
                options.trace = value == "1";
            } else if (arg == "--size") {
                size = value;
            } else if (arg == "--work-dir") {
                options.work_dir = value;
            } else if (arg == "--trace-out") {
                options.trace_out = value;
            } else {
                return usage("unknown argument " + arg);
            }
        }
    } catch (const std::exception&) {
        return usage("bad number");
    }
    const auto found = workloads().find(options.workload);
    if (found == workloads().end()) return usage("unknown workload '" + options.workload + "'");
    if (size != "full" && size != "tiny") return usage("--size takes full or tiny");
    if (options.work_dir.empty()) return usage("--work-dir is required");
    if (!(options.seconds > 0)) return usage("--seconds must be positive");
    options.tiny = size == "tiny";
    options.nproc = std::max(1u, std::thread::hardware_concurrency());
    std::filesystem::create_directories(options.work_dir);
    settle_disk(options.work_dir);

    std::printf("# host:");
    for (const auto& [key, value] : host_context(options)) {
        std::printf(" %s=%s;", key.c_str(), value.c_str());
    }
    std::printf("\n# workload %s, seed %llu, %.3g s, trace %d, size %s\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, size.c_str());
    std::fflush(stdout);

    Outcome out;
    try {
        if (options.trace) {
            traced_run(options, found->second, out);
        } else {
            found->second.run(options, out);
            out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        }
    } catch (const std::exception& error) {
        out.op(false, std::string("exception: ") + error.what());
    }
    remove_tree(options.work_dir);
    settle_disk(std::filesystem::path(options.work_dir).parent_path().string());

    for (const auto& m : out.metrics()) {
        if (!std::isfinite(m.value)) out.fail("metric " + m.name + " is not finite");
    }
    print_metrics(options.trace ? "per-layer" : "end-to-end", out);
    for (const auto& error : out.errors()) std::fprintf(stderr, "qrn-bench: FAILED: %s\n", error.c_str());
    const bool correct = out.failed() == 0 && out.attempted() > 0;

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted());
    json += ", \"failed\": " + std::to_string(out.failed());
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < out.metrics().size(); ++i) {
        const Metric& m = out.metrics()[i];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
        json += (i ? ", " : "");
        json += "\"" + json_escape(m.name) + "\": {\"value\": " + buf + ", \"unit\": \"" +
                json_escape(m.unit) + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
