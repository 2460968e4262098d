// Incident detection: mapping encounter outcomes to QRN incident records.
//
// The fleet recorder logs every collision, and every near pass whose
// measurements could possibly matter to any quality incident type
// (recording thresholds are deliberately wider than the incident-type
// margins so the evidence stream never truncates the margin space).
#pragma once

#include <optional>

#include "qrn/incident.h"
#include "sim/dynamics.h"
#include "sim/scenario.h"

namespace qrn::sim {

/// Physical recording thresholds of the fleet logger.
struct DetectorConfig {
    double near_miss_max_distance_m = 3.0;   ///< Record passes closer than this.
    double near_miss_min_speed_kmh = 5.0;    ///< ... with at least this closing speed.
};

/// Converts one resolved encounter to an incident record, if the outcome
/// crosses any recording threshold. `timestamp_hours` stamps the record.
/// Inline: the fleet kernel calls it once per encounter.
[[nodiscard]] inline std::optional<Incident> detect_incident(
    const Encounter& encounter, const EncounterOutcome& outcome, double timestamp_hours,
    const DetectorConfig& config = {}) {
    Incident incident;
    incident.first = ActorType::EgoVehicle;
    incident.second = counterparty_of(encounter.kind);
    incident.timestamp_hours = timestamp_hours;
    if (outcome.collision) {
        incident.mechanism = IncidentMechanism::Collision;
        incident.relative_speed_kmh = outcome.impact_speed_kmh;
        incident.min_distance_m = 0.0;
        validate(incident);
        return incident;
    }
    if (outcome.min_gap_m < config.near_miss_max_distance_m &&
        outcome.closing_speed_kmh > config.near_miss_min_speed_kmh) {
        incident.mechanism = IncidentMechanism::NearMiss;
        incident.relative_speed_kmh = outcome.closing_speed_kmh;
        incident.min_distance_m = outcome.min_gap_m;
        validate(incident);
        return incident;
    }
    return std::nullopt;
}

}  // namespace qrn::sim
