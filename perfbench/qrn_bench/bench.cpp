#include "bench.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/metrics.h"

namespace qrn::bench {

namespace fs = std::filesystem;

// ---- Outcome -----------------------------------------------------------

bool Outcome::op(bool ok, std::string_view what) {
    ++attempted_;
    if (!ok) fail(what);
    return ok;
}

void Outcome::fail(std::string_view what) {
    ++failed_;
    if (errors_.size() < 8) errors_.emplace_back(what);
}

void Outcome::metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

// ---- time and statistics ---------------------------------------------

double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double time_s(const std::function<void()>& fn) {
    const double start = now_s();
    fn();
    return now_s() - start;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

// ---- spans --------------------------------------------------------------

namespace {

struct SpanStore {
    std::mutex mutex;
    std::vector<Tracer::Span> spans;  // guarded by mutex
    std::atomic<std::uint64_t> next_thread{1};
};

SpanStore& span_store() {
    static SpanStore store;
    return store;
}

/// Open spans of the calling thread, innermost last (span ids).
thread_local std::vector<std::uint64_t> t_open;
thread_local std::uint64_t t_thread = 0;

}  // namespace

Tracer& tracer() {
    static Tracer instance;
    return instance;
}

std::uint64_t Tracer::open(std::string_view name) {
    if (!enabled_) return 0;
    SpanStore& store = span_store();
    if (t_thread == 0) t_thread = store.next_thread.fetch_add(1);
    Span span;
    span.name = std::string(name);
    span.parent = t_open.empty() ? 0 : t_open.back();
    span.thread = t_thread;
    span.start_s = now_s();
    const std::scoped_lock lock(store.mutex);
    span.id = store.spans.size() + 1;
    store.spans.push_back(std::move(span));
    t_open.push_back(store.spans.back().id);
    return store.spans.back().id;
}

void Tracer::close(std::uint64_t id) {
    if (id == 0) return;
    const double end = now_s();
    if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
    SpanStore& store = span_store();
    const std::scoped_lock lock(store.mutex);
    store.spans[id - 1].end_s = end;
}

std::vector<Tracer::Span> Tracer::spans() const {
    SpanStore& store = span_store();
    const std::scoped_lock lock(store.mutex);
    return store.spans;
}

namespace {

std::string json_string(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

}  // namespace

void Tracer::write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, std::string>>& metadata) const {
    const std::vector<Span> all = spans();
    const double origin = all.empty() ? 0.0 : all.front().start_s;
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
    for (std::size_t i = 0; i < metadata.size(); ++i) {
        out << (i ? "," : "") << json_string(metadata[i].first) << ':'
            << json_string(metadata[i].second);
    }
    out << "},\"traceEvents\":[\n";
    char buf[96];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span& s = all[i];
        std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f",
                      (s.start_s - origin) * 1e6, (s.end_s - s.start_s) * 1e6);
        out << (i ? ",\n" : "") << "{\"name\":" << json_string(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread << ",\"ts\":" << buf
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
}

std::vector<SpanTotals> span_totals(const std::vector<Tracer::Span>& spans) {
    std::vector<double> child_s(spans.size() + 1, 0.0);
    for (const auto& s : spans) {
        if (s.parent != 0) child_s[s.parent] += s.end_s - s.start_s;
    }
    std::map<std::string, SpanTotals> by_name;
    for (const auto& s : spans) {
        SpanTotals& t = by_name[s.name];
        t.name = s.name;
        ++t.count;
        const double dur = s.end_s - s.start_s;
        t.total_s += dur;
        t.self_s += std::max(0.0, dur - child_s[s.id]);
    }
    std::vector<SpanTotals> out;
    for (auto& [name, totals] : by_name) out.push_back(totals);
    return out;
}

void set_tracing(bool on) {
    tracer().set_enabled(on);
    obs::reset();
    obs::set_enabled(on);
}

std::uint64_t obs_counter(std::string_view name) {
    for (const auto& c : obs::counters_snapshot()) {
        if (c.name == name) return c.value;
    }
    return 0;
}

ObsTimer obs_timer(std::string_view name) {
    for (const auto& t : obs::timers_snapshot()) {
        if (t.name == name) return {t.count, t.total_ns};
    }
    return {};
}

// ---- filesystem and process ------------------------------------------

std::string fresh_dir(const Options& options, std::string_view name) {
    const std::string dir = options.work_dir + "/" + std::string(name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void remove_tree(const std::string& path) {
    std::error_code ec;
    fs::remove_all(path, ec);
}

void settle_disk(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (fd < 0) return;
    (void)::syncfs(fd);
    ::close(fd);
}

std::vector<std::pair<std::string, std::string>> shard_files(const std::string& dir) {
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto& item : fs::directory_iterator(dir)) {
        if (item.path().extension() != ".qrs") continue;
        std::ifstream in(item.path(), std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        out.emplace_back(item.path().filename().string(), bytes.str());
    }
    std::sort(out.begin(), out.end());
    return out;
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string fs_type(const std::string& path) {
    struct statfs info {};
    if (::statfs(path.c_str(), &info) != 0) return "unknown";
    switch (static_cast<unsigned long>(info.f_type)) {
        case 0xEF53UL: return "ext4";
        case 0x01021994UL: return "tmpfs";
        case 0x58465342UL: return "xfs";
        case 0x9123683EUL: return "btrfs";
        case 0x794C7630UL: return "overlayfs";
        case 0x6969UL: return "nfs";
        case 0x65735546UL: return "fuse";
        default: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "0x%lx",
                          static_cast<unsigned long>(info.f_type));
            return buf;
        }
    }
}

std::vector<std::pair<std::string, std::string>> host_context(const Options& options) {
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("g++ ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    return {
        {"nproc", std::to_string(options.nproc)},
        {"cpu", cpu},
        {"compiler", compiler},
        {"build_type", QRN_BENCH_BUILD_TYPE},
        {"store_fs", fs_type(options.work_dir)},
    };
}

// ---- store calls -----------------------------------------------------

std::unique_ptr<store::Store> open_store(const std::string& dir) {
    const SpanScope span("store.Store");
    return std::make_unique<store::Store>(dir);
}

store::StoreCampaignStats run_with_store(const sim::CampaignConfig& config,
                                         store::Store& st, const std::string& digest) {
    const SpanScope span("store.run_campaign_with_store");
    return store::run_campaign_with_store(config, st, digest);
}

store::StoreAggregate aggregate(const store::Store& st,
                                const std::vector<store::ShardEntry>& entries,
                                const IncidentTypeSet& types, unsigned jobs) {
    std::vector<store::ShardRef> refs;
    refs.reserve(entries.size());
    for (const auto& entry : entries) refs.push_back({entry.fleet_index, st.shard_path(entry)});
    const SpanScope span("store.aggregate_evidence");
    return store::aggregate_evidence(refs, types, jobs);
}

// ---- output checks ---------------------------------------------------

bool same_evidence(const std::vector<TypeEvidence>& a,
                   const std::vector<TypeEvidence>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].incident_type_id != b[i].incident_type_id ||
            a[i].events != b[i].events ||
            !same_bits(a[i].exposure.hours(), b[i].exposure.hours())) {
            return false;
        }
    }
    return true;
}

}  // namespace qrn::bench
