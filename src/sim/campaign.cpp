#include "sim/campaign.h"

#include <stdexcept>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "stats/rng.h"

namespace qrn::sim {

Frequency CampaignAggregate::pooled_incident_rate() const {
    return Frequency::of_count(total_events, total_exposure);
}

stats::HeterogeneityResult CampaignAggregate::heterogeneity() const {
    return stats::rate_heterogeneity_test(observations);
}

CampaignAggregate fold_fleets(const std::vector<FleetPartial>& partials,
                              const IncidentTypeSet& types) {
    CampaignAggregate out;
    out.shard_count = partials.size();
    out.evidence.reserve(types.size());
    for (std::size_t k = 0; k < types.size(); ++k) {
        TypeEvidence e;
        e.incident_type_id = types.at(k).id();
        out.evidence.push_back(std::move(e));
    }
    out.observations.reserve(partials.size());
    for (const FleetPartial& fleet : partials) {
        const ExposureHours exposure(fleet.exposure_hours);
        out.total_exposure += exposure;
        out.total_events += static_cast<double>(fleet.records);
        out.total_records += fleet.records;
        out.per_fleet_rates.add(
            Frequency::of_count(static_cast<double>(fleet.records), exposure)
                .per_hour_value());
        out.observations.push_back({fleet.records, fleet.exposure_hours});
        for (std::size_t k = 0; k < types.size(); ++k) {
            out.evidence[k].events += fleet.type_events[k];
        }
    }
    for (auto& e : out.evidence) e.exposure = out.total_exposure;
    return out;
}

std::vector<TypeEvidence> CampaignResult::pooled_evidence(
    const IncidentTypeSet& types) const {
    return aggregate(types).evidence;
}

CampaignAggregate CampaignResult::aggregate(const IncidentTypeSet& types) const {
    std::vector<FleetPartial> partials;
    partials.reserve(logs.size());
    for (const auto& log : logs) {
        partials.push_back({log.incidents.size(), log.exposure.hours(),
                            count_matching_all(log.incidents, types)});
    }
    return fold_fleets(partials, types);
}

CampaignResult run_campaign(const CampaignConfig& config) {
    if (config.fleets == 0) {
        throw std::invalid_argument("run_campaign: fleets must be >= 1");
    }
    if (!(config.hours_per_fleet > 0.0)) {
        throw std::invalid_argument("run_campaign: hours_per_fleet must be > 0");
    }
    CampaignResult result;
    if (obs::enabled()) obs::add_counter("sim.campaign_fleets", config.fleets);
    // Fleet i's whole run is a pure function of stream_seed(base.seed, i),
    // so the fleets can execute in any order on any thread; parallel_map
    // restores seed order when collecting. Each fleet runs its stretches
    // serially - the campaign level is where the parallelism pays.
    result.logs = exec::parallel_map<IncidentLog>(
        config.jobs, config.fleets, [&](std::size_t i) {
            FleetConfig fleet = config.base;
            fleet.seed = stats::Rng::stream_seed(config.base.seed, i);
            return FleetSimulator(fleet).run(config.hours_per_fleet);
        });
    for (const auto& log : result.logs) result.total_exposure += log.exposure;
    return result;
}

}  // namespace qrn::sim
