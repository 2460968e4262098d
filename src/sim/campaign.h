// Fleet campaigns: pooling evidence across many independent fleets.
//
// A single simulated fleet gives one evidence stream; a verification
// campaign runs many independently-seeded fleets (think: vehicles, cities,
// quarters) and pools their exposure and incident counts. Pooling is what
// makes the exact Poisson bounds converge: the same true rates yield
// tighter upper bounds as total exposure grows, turning POINT-ONLY class
// verdicts into FULFILLED ones (paper Sec. IV's verification effort).
//
// Every campaign report - in memory, from a shard store, or after a
// distributed run - comes out of one serial fleet-order fold
// (fold_fleets), so the paths agree digit for digit by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/fleet.h"
#include "stats/rate_estimation.h"
#include "stats/running_summary.h"

namespace qrn::sim {

/// Campaign parameters: N fleets derived from a base configuration. Fleet
/// i runs with seed stats::Rng::stream_seed(base.seed, i), so fleet seeds
/// are decorrelated (not consecutive integers) and independent of how the
/// fleets are scheduled over threads.
struct CampaignConfig {
    FleetConfig base;
    std::size_t fleets = 10;          ///< >= 1.
    double hours_per_fleet = 1000.0;  ///< > 0.
    unsigned jobs = 1;                ///< Fleets simulated concurrently.
};

/// What the fold needs from one fleet, whether it comes from an in-memory
/// log or from a scan of the fleet's sealed shard.
struct FleetPartial {
    std::uint64_t records = 0;
    double exposure_hours = 0.0;
    std::vector<std::uint64_t> type_events;  ///< count_matching_all order.
};

/// Everything `qrn campaign` reports about a campaign's evidence.
struct CampaignAggregate {
    std::vector<TypeEvidence> evidence;           ///< Pooled per-type evidence.
    ExposureHours total_exposure;                 ///< Fleet-order sum.
    double total_events = 0.0;                    ///< Incidents, fleet-order sum.
    std::uint64_t total_records = 0;
    std::size_t shard_count = 0;                  ///< Fleets folded.
    stats::RunningSummary per_fleet_rates;        ///< Of per-fleet incident rates.
    std::vector<stats::RateObservation> observations;  ///< Fleet order.

    /// Pooled incident rate (all incidents / total exposure).
    [[nodiscard]] Frequency pooled_incident_rate() const;

    /// Chi-squared homogeneity test across the fleets' total incident
    /// counts: a small p-value means the fleets are not observing the same
    /// incident process and the pooled evidence is suspect. Requires at
    /// least two fleets.
    [[nodiscard]] stats::HeterogeneityResult heterogeneity() const;
};

/// The one fleet-order fold: every floating-point sum runs serially over
/// `partials` in order, so any path that produces the same partials (at
/// any jobs value) produces the same aggregate bit for bit.
[[nodiscard]] CampaignAggregate fold_fleets(const std::vector<FleetPartial>& partials,
                                            const IncidentTypeSet& types);

/// The result of an in-memory campaign.
struct CampaignResult {
    std::vector<IncidentLog> logs;    ///< One per fleet, seed order.
    ExposureHours total_exposure;

    /// Pooled incident counts per incident type over the total exposure.
    [[nodiscard]] std::vector<TypeEvidence> pooled_evidence(
        const IncidentTypeSet& types) const;

    /// The logs folded through fold_fleets. Computed on request only, so
    /// run_campaign itself does no aggregation work.
    [[nodiscard]] CampaignAggregate aggregate(const IncidentTypeSet& types) const;
};

/// Runs the campaign: fleet i uses seed stream_seed(base.seed, i).
/// Bit-identical for every config.jobs value (fleets own their RNG
/// streams; logs are collected in fleet order).
[[nodiscard]] CampaignResult run_campaign(const CampaignConfig& config);

}  // namespace qrn::sim
