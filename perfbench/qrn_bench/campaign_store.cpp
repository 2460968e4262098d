// campaign_store: a campaign of many short fleets against a store. One
// cold run (store::run_campaign_with_store at jobs = nproc into an empty
// store) populates it; the measured window then alternates warm reruns of
// the same campaign at jobs = nproc and jobs = 1, each opening the store,
// re-verifying every shard (all reused) and running
// store::aggregate_evidence. That is the store's read side with sim idle.
// The write side's time is bound by fsync and by file deletion on the
// disk, which do not repeat run to run on a shared host, so the cold run
// is reported once here and measured as store.cold_fleets_per_s in the
// traced run instead of being gated.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "sched/plan.h"
#include "store/shard.h"

namespace qrn::bench {

namespace {

sim::CampaignConfig campaign(const Options& options, std::size_t fleets) {
    sim::CampaignConfig config;
    config.base.seed = options.seed;
    config.fleets = fleets;
    config.hours_per_fleet = 100.0;
    config.jobs = options.nproc;
    return config;
}

std::size_t fleets_of(const Options& options) { return options.tiny ? 20 : 250; }

/// The in-memory campaign every store aggregate must reproduce.
struct Reference {
    std::vector<TypeEvidence> evidence;
    double exposure = 0.0;
    std::uint64_t records = 0;

    [[nodiscard]] bool matches(const store::StoreAggregate& agg) const {
        return same_evidence(evidence, agg.evidence) &&
               same_bits(exposure, agg.total_exposure.hours()) &&
               records == agg.total_records;
    }
};

Reference reference(const sim::CampaignConfig& config, const IncidentTypeSet& types) {
    const sim::CampaignResult result = sim::run_campaign(config);
    Reference ref;
    ref.evidence = result.pooled_evidence(types);
    ref.exposure = result.total_exposure.hours();
    for (const auto& log : result.logs) ref.records += log.incidents.size();
    return ref;
}

/// Store creation on an empty directory plus the in-memory campaign the
/// store runs are checked against (which also warms the pool).
double setup_once(const Options& options, const sim::CampaignConfig& config,
                  const IncidentTypeSet& types, Reference& ref, int rep) {
    const std::string dir = fresh_dir(options, "setup-" + std::to_string(rep));
    const double t = time_s([&] {
        (void)open_store(dir);
        ref = reference(config, types);
    });
    remove_tree(dir);
    return t;
}

/// One cold run into a fresh directory; returns its wall time.
double cold_run(const sim::CampaignConfig& config, const std::string& dir, const std::string& digest,
                const IncidentTypeSet& types, const Reference& ref, Outcome& out) {
    store::StoreCampaignStats run;
    const double t = time_s([&] {
        const auto st = open_store(dir);
        run = run_with_store(config, *st, digest);
    });
    const store::Store st(dir);
    out.op(run.fleets_simulated == config.fleets &&
               ref.matches(aggregate(st, run.entries, types, config.jobs)),
           "campaign_store: cold aggregate differs from the in-memory campaign");
    return t;
}

/// One warm rerun: open, rerun (every shard reused), aggregate.
double warm_run(const sim::CampaignConfig& config, const std::string& dir,
                const std::string& digest, const IncidentTypeSet& types,
                const Reference& ref, Outcome& out) {
    store::StoreCampaignStats run;
    store::StoreAggregate agg;
    const double t = time_s([&] {
        const auto st = open_store(dir);
        run = run_with_store(config, *st, digest);
        agg = aggregate(*st, run.entries, types, config.jobs);
    });
    out.op(run.fleets_simulated == 0 && ref.matches(agg),
           "campaign_store: warm rerun simulated fleets or changed the aggregate");
    return t;
}

}  // namespace

void run_campaign_store(const Options& options, Outcome& out) {
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string digest = sched::campaign_inputs_digest();
    const sim::CampaignConfig config = campaign(options, fleets_of(options));
    Reference ref;
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) setups.push_back(setup_once(options, config, types, ref, i));

    // The write side runs once: its fsync-bound time is reported, not
    // gated (see README: it does not repeat on a shared disk).
    const std::string dir = fresh_dir(options, "store");
    const double t_cold = cold_run(config, dir, digest, types, ref, out);
    std::printf("# campaign_store: cold run %.1f fleets/s (one run, %zu fleets)\n",
                static_cast<double>(config.fleets) / t_cold, config.fleets);

    sim::CampaignConfig serial = config;
    serial.jobs = 1;
    std::vector<double> t_warm;
    std::vector<double> t_serial;
    const Window window(options.seconds);
    while (window.more(t_warm.size(), 10)) {
        t_warm.push_back(warm_run(config, dir, digest, types, ref, out));
        t_serial.push_back(warm_run(serial, dir, digest, types, ref, out));
    }
    remove_tree(dir);

    const auto fleets = static_cast<double>(config.fleets);
    out.metric("setup_s", median(setups), "s");
    out.metric("primary_per_s", fleets / fast_tenth(t_warm), "1/s");
    out.metric("secondary_per_s", fleets / fast_tenth(t_serial), "1/s");
    out.metric("latency_ms", fast_tenth(t_warm) * 1e3, "ms");
}

void trace_campaign_store(const Options& options, double budget_s, Outcome& out) {
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string digest = sched::campaign_inputs_digest();
    const sim::CampaignConfig config = campaign(options, fleets_of(options));
    const Reference ref = reference(config, types);
    const int reps = options.tiny ? 5 : 50;

    // write_shard, seal and fsync included, on one 100 h fleet log.
    {
        const std::string dir = fresh_dir(options, "write-probe");
        sim::FleetConfig fleet = config.base;
        const sim::IncidentLog log = sim::FleetSimulator(fleet).run(config.hours_per_fleet);
        std::vector<double> t;
        for (int i = 0; i < reps * 4; ++i) {
            const std::string path = dir + "/probe-" + std::to_string(i) + ".qrs";
            t.push_back(time_s([&] {
                const SpanScope span("store.write_shard");
                store::write_shard(path, 0x5eed + static_cast<std::uint64_t>(i),
                                   static_cast<std::uint64_t>(i), log);
            }));
        }
        out.metric("store.write_shard_us", median(t) * 1e6, "us");
        remove_tree(dir);
    }

    // Store::record, one call per fleet as a cold campaign makes them: the
    // whole manifest is rewritten each time, so the last calls are dearer.
    {
        const std::string dir = fresh_dir(options, "record-probe");
        store::Store st(dir);
        std::vector<double> t;
        double manifest_bytes = 0.0;
        for (std::uint64_t i = 0; i < config.fleets; ++i) {
            store::ShardEntry entry;
            entry.fleet_index = i;
            entry.cache_key = 0x9e3779b97f4a7c15ULL * (i + 1);
            entry.file = store::Store::shard_filename(i, entry.cache_key);
            entry.records = 3;
            entry.exposure_hours = config.hours_per_fleet;
            t.push_back(time_s([&] {
                const SpanScope span("store.Store.record");
                st.record(entry);
            }));
            manifest_bytes +=
                static_cast<double>(std::filesystem::file_size(st.manifest_path()));
        }
        const std::vector<double> last(t.end() - static_cast<long>(t.size() / 10 + 1), t.end());
        out.metric("store.record_p50_us", median(t) * 1e6, "us");
        out.metric("store.record_last_decile_us", median(last) * 1e6, "us");
        out.metric("store.manifest_bytes_written", manifest_bytes, "B");
        remove_tree(dir);
    }

    // The write side: cold runs into fresh stores (removed only after the
    // loop, so no deletion overlaps a timed run).
    std::vector<double> t_cold;
    std::vector<std::string> cold_dirs;
    const Window cold_window(budget_s / 4);
    while (cold_window.more(t_cold.size(), 3)) {
        cold_dirs.push_back(fresh_dir(options, "cold-" + std::to_string(t_cold.size())));
        t_cold.push_back(cold_run(config, cold_dirs.back(), digest, types, ref, out));
    }
    for (const auto& cold_dir : cold_dirs) remove_tree(cold_dir);
    out.metric("store.cold_fleets_per_s", static_cast<double>(config.fleets) / median(t_cold),
               "1/s");

    // The read side on one populated store.
    const std::string dir = fresh_dir(options, "store");
    (void)cold_run(config, dir, digest, types, ref, out);
    std::vector<double> t_warm;
    const Window window(budget_s / 4);
    while (window.more(t_warm.size(), 3)) {
        t_warm.push_back(warm_run(config, dir, digest, types, ref, out));
    }

    std::unique_ptr<store::Store> st = open_store(dir);
    const auto entries = st->entries();
    std::vector<double> t_verify;
    for (const auto& entry : entries) {
        t_verify.push_back(time_s([&] {
            const SpanScope span("store.verify_shard");
            (void)store::verify_shard(st->shard_path(entry));
        }));
    }
    out.metric("store.verify_shard_us", median(t_verify) * 1e6, "us");

    std::vector<double> t_open;
    for (int i = 0; i < reps; ++i) {
        t_open.push_back(time_s([&] { st = open_store(dir); }));
    }
    out.metric("store.open_ms", median(t_open) * 1e3, "ms");

    std::vector<double> t_agg;
    std::uint64_t records = 0;
    for (int i = 0; i < reps; ++i) {
        t_agg.push_back(time_s([&] { records = aggregate(*st, entries, types, config.jobs).total_records; }));
    }
    out.metric("store.aggregate_records_per_s",
               static_cast<double>(records) / median(t_agg), "1/s");

    // Read passes of one warm rerun + aggregate: records read over records.
    obs::reset();
    (void)warm_run(config, dir, digest, types, ref, out);
    out.metric("store.read_passes_warm",
               records == 0 ? 0.0
                            : static_cast<double>(obs_counter("store.records_read")) /
                                  static_cast<double>(records),
               "ratio");
    remove_tree(dir);
}

}  // namespace qrn::bench
