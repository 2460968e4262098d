// campaign_dist: the distributed campaign path.
//   (a) Compile plan, DAG and budget with no simulation, for 5000 and for
//       1000 fleets: what a user waits for before the first dispatch. The
//       two sizes separate per-node cost from its growth with size. This
//       is the measured window.
//   (b) A run_coordinator campaign with two attached worker processes over
//       a fresh store, followed by the same reuse check and aggregate as a
//       local --store run, checked byte for byte against a local run.
//   (c) The same command again on the finished store: the resume sweep
//       finds every shard sealed, so only the read side runs.
// (b) and (c) are bound by fsync and process start-up, which do not repeat
// on a shared host; they are checked and reported here and measured per
// layer in the traced run. Only this workload exercises sched: the DAG,
// leases, the worker pipe round trip and respawn accounting.
//
// The workers are this very binary: the coordinator execs /proc/self/exe
// as `qrn sched worker --attached`, which main() hands to
// sched::run_attached_worker.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "sched/coordinator.h"
#include "sched/dag.h"
#include "sched/plan.h"

namespace qrn::bench {

namespace {

constexpr unsigned kWorkers = 2;
/// Local threads for the reuse check and aggregate, and for the local
/// reference run: the same parallelism the two workers have.
constexpr unsigned kJobs = 2;

sim::CampaignConfig campaign(const Options& options, std::size_t fleets) {
    sim::CampaignConfig config;  // base: the "nominal" policy in the "urban" ODD
    config.base.seed = options.seed;
    config.fleets = fleets;
    config.hours_per_fleet = 100.0;
    config.jobs = kJobs;
    return config;
}

std::size_t run_fleets(const Options& options) { return options.tiny ? 16 : 100; }
std::size_t plan_fleets(const Options& options) { return options.tiny ? 200 : 5000; }
std::size_t small_plan_fleets(const Options& options) { return options.tiny ? 100 : 1000; }

sched::CampaignPlan make_plan(const sim::CampaignConfig& config, const std::string& digest) {
    const SpanScope span("sched.make_plan");
    return sched::make_plan("nominal", "urban", config, digest);
}

sched::Dag build_dag(const sched::CampaignPlan& plan) {
    const SpanScope span("sched.build_campaign_dag");
    return sched::build_campaign_dag(plan);
}

bool within_budget(const sched::Dag& dag) {
    const SpanScope span("sched.check_budget");
    return sched::check_budget(sched::compute_metrics(dag),
                               sched::DagBudget::campaign_default())
        .passed;
}

/// Phase (a): plan + DAG + budget, no simulation. Returns the DAG size
/// (0 when the budget rejected it).
std::size_t compile_plan(const sim::CampaignConfig& config, const std::string& digest) {
    const SpanScope span("bench.compile_plan");
    const sched::Dag dag = build_dag(make_plan(config, digest));
    return within_budget(dag) ? dag.size() : 0;
}

struct StoreRun {
    store::StoreCampaignStats rerun;
    store::StoreAggregate agg;
};

/// The aggregate node of a --store campaign: reuse-or-simulate every
/// fleet, then stream the shards.
StoreRun store_and_aggregate(const sim::CampaignConfig& config, const std::string& dir,
                             const std::string& digest, const IncidentTypeSet& types) {
    StoreRun out;
    const auto st = open_store(dir);
    out.rerun = run_with_store(config, *st, digest);
    out.agg = aggregate(*st, out.rerun.entries, types, config.jobs);
    return out;
}

struct DistRun {
    sched::CoordinatorStats stats;
    StoreRun result;
    double coordinator_s = 0.0;
};

/// Phases (b) and (c): what `qrn campaign --distributed --workers 2` does
/// after argument parsing.
DistRun distributed(const sim::CampaignConfig& config, const std::string& dir,
                    const std::string& digest, const IncidentTypeSet& types) {
    const SpanScope span("bench.distributed_campaign");
    const sched::CampaignPlan plan = make_plan(config, digest);
    // The "generate" node: written once; a rerun must find the same plan.
    if (const auto existing = sched::read_plan(dir)) {
        if (!(*existing == plan)) throw std::runtime_error("store holds another campaign's plan");
    } else {
        const SpanScope write("sched.write_plan");
        sched::write_plan(dir, plan);
    }
    const sched::Dag dag = build_dag(plan);
    if (!within_budget(dag)) throw std::runtime_error("campaign DAG over budget");
    sched::CoordinatorConfig coordinator;
    coordinator.store_dir = dir;
    coordinator.workers = kWorkers;
    DistRun out;
    out.coordinator_s = time_s([&] {
        const SpanScope run("sched.run_coordinator");
        out.stats = sched::run_coordinator(plan, dag, coordinator);
    });
    out.result = store_and_aggregate(config, dir, digest, types);
    return out;
}

bool same_aggregate(const store::StoreAggregate& a, const store::StoreAggregate& b) {
    return same_evidence(a.evidence, b.evidence) &&
           same_bits(a.total_exposure.hours(), b.total_exposure.hours()) &&
           a.total_records == b.total_records && a.shard_count == b.shard_count;
}

/// A local --store run of the same campaign: the bytes and aggregate
/// every distributed run must reproduce.
struct LocalReference {
    std::vector<std::pair<std::string, std::string>> shards;
    store::StoreAggregate agg;
};

LocalReference local_reference(const Options& options, const sim::CampaignConfig& config,
                               const std::string& digest, const IncidentTypeSet& types) {
    const std::string dir = fresh_dir(options, "local");
    LocalReference ref;
    ref.agg = store_and_aggregate(config, dir, digest, types).agg;
    ref.shards = shard_files(dir);
    remove_tree(dir);
    return ref;
}

/// Checks a distributed run against the local reference: a cold run
/// completes every node and seals the reference's shards byte for byte; a
/// resumed one finds every node already sealed. Both aggregate alike.
bool matches(const DistRun& run, const LocalReference& ref, const std::string& dir,
             std::size_t fleets, bool resumed) {
    const sched::CoordinatorStats& st = run.stats;
    const bool nodes_ok = resumed ? st.nodes_reused == fleets && st.nodes_dispatched == 0
                                  : st.nodes_completed + st.nodes_reused == fleets;
    return nodes_ok && run.result.rerun.fleets_simulated == 0 &&
           same_aggregate(run.result.agg, ref.agg) && (resumed || shard_files(dir) == ref.shards);
}

/// Store creation plus the run campaign's plan, DAG and budget check.
double setup_once(const Options& options, const sim::CampaignConfig& config,
                  const std::string& digest, int rep) {
    const std::string dir = fresh_dir(options, "setup-" + std::to_string(rep));
    const double t = time_s([&] {
        (void)open_store(dir);
        (void)compile_plan(config, digest);
    });
    remove_tree(dir);
    return t;
}

}  // namespace

void run_campaign_dist(const Options& options, Outcome& out) {
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string digest = sched::campaign_inputs_digest();
    const sim::CampaignConfig large = campaign(options, plan_fleets(options));
    const sim::CampaignConfig small = campaign(options, small_plan_fleets(options));
    const sim::CampaignConfig config = campaign(options, run_fleets(options));

    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) setups.push_back(setup_once(options, config, digest, i));

    // Phase (a), gated: plan compilation at two sizes, so a change to the
    // per-node cost and one to its growth with size show apart.
    std::vector<double> t_large;
    std::vector<double> t_small;
    const Window window(options.seconds);
    while (window.more(t_large.size(), 10)) {
        std::size_t nodes = 0;
        t_large.push_back(time_s([&] { nodes = compile_plan(large, digest); }));
        out.op(nodes == large.fleets + 3, "campaign_dist: plan DAG has the wrong size");
        t_small.push_back(time_s([&] { nodes = compile_plan(small, digest); }));
        out.op(nodes == small.fleets + 3, "campaign_dist: plan DAG has the wrong size");
    }

    // Phases (b) and (c), checked and reported: their time is bound by
    // fsync and worker start-up, which do not repeat on a shared disk.
    const LocalReference ref = local_reference(options, config, digest, types);
    std::vector<double> t_cold;
    std::vector<double> t_resume;
    for (int rep = 0; rep < 3; ++rep) {
        const std::string dir = fresh_dir(options, "dist-" + std::to_string(rep));
        DistRun run;
        t_cold.push_back(time_s([&] { run = distributed(config, dir, digest, types); }));
        out.op(matches(run, ref, dir, config.fleets, false),
               "campaign_dist: distributed shards or aggregate differ from the local run");
        t_resume.push_back(time_s([&] { run = distributed(config, dir, digest, types); }));
        out.op(matches(run, ref, dir, config.fleets, true),
               "campaign_dist: resumed run re-dispatched nodes or changed the aggregate");
    }
    for (int rep = 0; rep < 3; ++rep) remove_tree(options.work_dir + "/dist-" + std::to_string(rep));
    const auto fleets = static_cast<double>(config.fleets);
    std::printf("# campaign_dist: %u workers, %zu fleets: cold %.1f fleets/s, resumed %.1f "
                "fleets/s (median of 3)\n",
                kWorkers, config.fleets, fleets / median(t_cold), fleets / median(t_resume));

    out.metric("setup_s", median(setups), "s");
    out.metric("primary_per_s", static_cast<double>(large.fleets) / fast_tenth(t_large), "1/s");
    out.metric("secondary_per_s", static_cast<double>(small.fleets) / fast_tenth(t_small), "1/s");
    out.metric("latency_ms", fast_tenth(t_large) * 1e3, "ms");
}

void trace_campaign_dist(const Options& options, double budget_s, Outcome& out) {
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string digest = sched::campaign_inputs_digest();

    // Plan compilation and DAG construction per node, small and large.
    const std::size_t small = small_plan_fleets(options);
    const std::size_t large = plan_fleets(options);
    for (const std::size_t nodes : {small, large}) {
        const sim::CampaignConfig config = campaign(options, nodes);
        std::vector<double> t_plan;
        std::vector<double> t_dag;
        for (int rep = 0; rep < (nodes == small ? 10 : 3); ++rep) {
            sched::CampaignPlan plan;
            t_plan.push_back(time_s([&] { plan = make_plan(config, digest); }));
            t_dag.push_back(time_s([&] { (void)build_dag(plan); }));
        }
        const std::string suffix = nodes == small ? "_small" : "_large";
        const auto n = static_cast<double>(nodes);
        out.metric("sched.make_plan_ns_per_node" + suffix, median(t_plan) * 1e9 / n, "ns");
        out.metric("sched.dag_build_ns_per_node" + suffix, median(t_dag) * 1e9 / n, "ns");
    }

    const sim::CampaignConfig config = campaign(options, run_fleets(options));
    {
        const sched::CampaignPlan plan = make_plan(config, digest);
        std::vector<double> t;
        for (int rep = 0; rep < 10; ++rep) {
            const std::string dir = fresh_dir(options, "plan-probe");
            t.push_back(time_s([&] {
                const SpanScope span("sched.write_plan");
                sched::write_plan(dir, plan);
            }));
            remove_tree(dir);
        }
        out.metric("sched.write_plan_ms", median(t) * 1e3, "ms");
    }

    // The workload's distributed campaign with sched.* and store.* armed.
    const LocalReference ref = local_reference(options, config, digest, types);
    std::vector<double> dist_rate;
    std::vector<double> roundtrip_us;
    std::vector<double> wait_us;
    std::vector<double> dispatches;
    std::vector<double> passes;
    const Window window(budget_s / 2);
    while (window.more(roundtrip_us.size(), 1)) {
        const std::string dir = fresh_dir(options, "dist");
        obs::reset();
        DistRun run;
        dist_rate.push_back(static_cast<double>(config.fleets) /
                            time_s([&] { run = distributed(config, dir, digest, types); }));
        out.op(matches(run, ref, dir, config.fleets, false),
               "campaign_dist: distributed shards or aggregate differ from the local run");
        remove_tree(dir);
        const auto nodes = static_cast<double>(run.stats.nodes_total);
        roundtrip_us.push_back(run.coordinator_s * 1e6 / nodes);
        const ObsTimer wait = obs_timer("sched.worker_wait_ns");
        wait_us.push_back(wait.count == 0 ? 0.0
                                          : static_cast<double>(wait.total_ns) / 1e3 /
                                                static_cast<double>(wait.count));
        dispatches.push_back(static_cast<double>(run.stats.nodes_dispatched) / nodes);
        const std::uint64_t records = run.result.agg.total_records;
        passes.push_back(records == 0 ? 0.0
                                      : static_cast<double>(obs_counter("store.records_read")) /
                                            static_cast<double>(records));
    }
    out.metric("sched.dist_fleets_per_s", median(dist_rate), "1/s");
    out.metric("sched.node_roundtrip_us", median(roundtrip_us), "us");
    out.metric("sched.worker_wait_us", median(wait_us), "us");
    out.metric("sched.dispatches_per_node", median(dispatches), "ratio");
    out.metric("store.read_passes_dist", median(passes), "ratio");
}

}  // namespace qrn::bench
