// campaign_mem: the in-memory campaign (sim::run_campaign) of a few long
// fleets, closed loop, alternating jobs = nproc and jobs = 1. sim and exec
// do all the work, so this is the no-change control for store, sched and
// serve optimisations, and the jobs = 1 run is the serial baseline that
// scaling efficiency needs.
#include <string>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "qrn/incident_type.h"
#include "sim/campaign.h"

namespace qrn::bench {

namespace {

struct MemSizes {
    std::size_t fleets;
    double hours;
};

MemSizes sizes(const Options& options) {
    return options.tiny ? MemSizes{4, 200.0} : MemSizes{32, 2000.0};
}

sim::CampaignConfig campaign(const Options& options, unsigned jobs) {
    const MemSizes s = sizes(options);
    sim::CampaignConfig config;
    config.base.seed = options.seed;
    config.fleets = s.fleets;
    config.hours_per_fleet = s.hours;
    config.jobs = jobs;
    return config;
}

sim::CampaignResult run(const sim::CampaignConfig& config) {
    const SpanScope span(config.jobs == 1 ? "sim.run_campaign[jobs=1]"
                                          : "sim.run_campaign[jobs=N]");
    return sim::run_campaign(config);
}

/// The jobs = N result must equal the serial one bit for bit.
bool same_pooled(const sim::CampaignResult& a, const sim::CampaignResult& b,
                 const IncidentTypeSet& types) {
    return same_evidence(a.pooled_evidence(types), b.pooled_evidence(types)) &&
           same_bits(a.total_exposure.hours(), b.total_exposure.hours());
}

/// Pool warm-up: a small jobs = N campaign (the first one also starts the
/// shared pool's threads), four short fleets per thread so that one slow
/// thread does not set its time.
double setup_once(const Options& options) {
    sim::CampaignConfig warm = campaign(options, options.nproc);
    warm.fleets = 4 * options.nproc;
    warm.hours_per_fleet = options.tiny ? 5.0 : 500.0;
    return time_s([&] { (void)run(warm); });
}

}  // namespace

void run_campaign_mem(const Options& options, Outcome& out) {
    const auto types = IncidentTypeSet::paper_vru_example();
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) setups.push_back(setup_once(options));

    const sim::CampaignConfig parallel = campaign(options, options.nproc);
    const sim::CampaignConfig serial = campaign(options, 1);
    const double fleet_hours = static_cast<double>(parallel.fleets) * parallel.hours_per_fleet;
    std::vector<double> t_parallel;
    std::vector<double> t_serial;
    const Window window(options.seconds);
    while (window.more(t_parallel.size(), 10)) {
        sim::CampaignResult a;
        sim::CampaignResult b;
        t_parallel.push_back(time_s([&] { a = run(parallel); }));
        t_serial.push_back(time_s([&] { b = run(serial); }));
        out.ops(1);
        out.op(same_pooled(a, b, types),
               "campaign_mem: pooled evidence at jobs=N differs from jobs=1");
    }

    out.metric("setup_s", median(setups), "s");
    out.metric("primary_per_s", fleet_hours / fast_tenth(t_parallel), "1/s");
    out.metric("secondary_per_s", fleet_hours / fast_tenth(t_serial), "1/s");
    out.metric("latency_ms", fast_tenth(t_parallel) * 1e3, "ms");
}

void trace_campaign_mem(const Options& options, double budget_s, Outcome& out) {
    const auto types = IncidentTypeSet::paper_vru_example();

    // sim: one serial fleet of the workload's length, timed around
    // FleetSimulator::run; encounter and incident counts come from the
    // sim.* counters and must match the returned log exactly.
    sim::FleetConfig fleet;
    fleet.seed = options.seed;
    const double hours = sizes(options).hours;
    std::vector<double> t_fleet;
    std::uint64_t encounters = 0;
    std::uint64_t incidents = 0;
    for (int rep = 0; rep < 5; ++rep) {
        obs::reset();
        sim::IncidentLog log;
        t_fleet.push_back(time_s([&] {
            const SpanScope span("sim.FleetSimulator.run");
            log = sim::FleetSimulator(fleet).run(hours, 1);
        }));
        encounters = obs_counter("sim.encounters");
        incidents = obs_counter("sim.incidents");
        out.op(encounters == log.encounters && incidents == log.incidents.size(),
               "campaign_mem: sim.* counters disagree with the fleet log");
    }
    const double fleet_s = median(t_fleet);
    out.metric("sim.ns_per_fleet_hour", fleet_s * 1e9 / hours, "ns");
    out.metric("sim.ns_per_encounter",
               fleet_s * 1e9 / static_cast<double>(std::max<std::uint64_t>(encounters, 1)),
               "ns");
    out.metric("sim.incidents_per_fleet_hour", static_cast<double>(incidents) / hours,
               "1/h");
    out.metric("sim.encounters", static_cast<double>(encounters), "count");

    // exec: jobs = N against jobs = 1 on the workload's campaign, with the
    // process CPU time spent during each jobs = N run.
    const sim::CampaignConfig parallel = campaign(options, options.nproc);
    const sim::CampaignConfig serial = campaign(options, 1);
    const double fleet_hours = static_cast<double>(parallel.fleets) * parallel.hours_per_fleet;
    std::vector<double> rate_parallel;
    std::vector<double> rate_serial;
    std::vector<double> cores;
    obs::reset();
    const Window window(budget_s);
    while (window.more(rate_parallel.size(), 2)) {
        sim::CampaignResult a;
        sim::CampaignResult b;
        const double cpu0 = process_cpu_s();
        const double t_parallel = time_s([&] { a = run(parallel); });
        cores.push_back((process_cpu_s() - cpu0) / t_parallel);
        const double t_serial = time_s([&] { b = run(serial); });
        rate_parallel.push_back(fleet_hours / t_parallel);
        rate_serial.push_back(fleet_hours / t_serial);
        out.op(same_pooled(a, b, types),
               "campaign_mem: pooled evidence at jobs=N differs from jobs=1");
    }
    const ObsTimer wait = obs_timer("exec.task_wait_ns");
    out.metric("exec.scaling_efficiency",
               median(rate_parallel) / (options.nproc * median(rate_serial)), "ratio");
    out.metric("exec.cores_used", median(cores), "cores");
    out.metric("exec.task_wait_us",
               wait.count == 0 ? 0.0
                               : static_cast<double>(wait.total_ns) / 1e3 /
                                     static_cast<double>(wait.count),
               "us");
}

}  // namespace qrn::bench
