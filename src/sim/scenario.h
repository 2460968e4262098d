// Scenario sampling: the encounter stream an operating ADS experiences.
//
// Encounters are conflict seeds (a VRU stepping out, a lead vehicle
// braking, debris on the road, wildlife, a cut-in). Their arrival
// intensities depend on the environment - and, through the tactical
// policy's speed choices, the *outcomes* depend on the design, which is
// exactly the exposure-is-a-design-choice point of Sec. II-B. Arrivals are
// Poisson per encounter kind; parameters are sampled per encounter.
//
// What the fleet kernel calls per stretch and per encounter
// (sample_counts, sample, counterparty_of, assumed_occlusion_sight_m) is
// defined inline here; environment sampling, the serial prologue of a
// fleet run, stays in scenario.cpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>

#include "qrn/incident.h"
#include "sim/dynamics.h"
#include "sim/odd.h"
#include "stats/rng.h"

namespace qrn::sim {

/// Conflict archetypes the simulator generates.
enum class EncounterKind : std::uint8_t {
    VruCrossing,         ///< Pedestrian/cyclist enters the lane.
    LeadVehicleBraking,  ///< Followed vehicle brakes hard.
    StationaryObstacle,  ///< Debris / stopped vehicle in lane.
    AnimalCrossing,      ///< Wildlife enters the lane.
    CutIn,               ///< Vehicle merges closely in front.
    CrossingVehicle,     ///< Vehicle crosses at an intersection.
    OncomingDrift,       ///< Oncoming vehicle drifts over the centre line.
};

inline constexpr std::size_t kEncounterKindCount = 7;

[[nodiscard]] inline EncounterKind encounter_kind_from_index(std::size_t index) {
    static constexpr std::array<EncounterKind, kEncounterKindCount> kAll = {
        EncounterKind::VruCrossing,       EncounterKind::LeadVehicleBraking,
        EncounterKind::StationaryObstacle, EncounterKind::AnimalCrossing,
        EncounterKind::CutIn,             EncounterKind::CrossingVehicle,
        EncounterKind::OncomingDrift,
    };
    if (index >= kAll.size()) {
        throw std::out_of_range("encounter_kind_from_index: bad index");
    }
    return kAll[index];
}

/// The counterparty actor type of an encounter kind.
[[nodiscard]] inline ActorType counterparty_of(EncounterKind kind) noexcept {
    switch (kind) {
        case EncounterKind::VruCrossing: return ActorType::Vru;
        case EncounterKind::LeadVehicleBraking: return ActorType::Car;
        case EncounterKind::StationaryObstacle: return ActorType::StaticObject;
        case EncounterKind::AnimalCrossing: return ActorType::Animal;
        case EncounterKind::CutIn: return ActorType::Car;
        case EncounterKind::CrossingVehicle: return ActorType::Car;
        case EncounterKind::OncomingDrift: return ActorType::Car;
    }
    return ActorType::OtherActor;
}

/// One sampled encounter, before perception and policy are applied.
struct Encounter {
    EncounterKind kind = EncounterKind::VruCrossing;
    /// Distance from ego to the conflict point when the conflict begins
    /// (i.e. when it becomes observable), metres.
    double conflict_distance_m = 50.0;
    /// Crossing speed for VRU/animal encounters (km/h).
    double crossing_speed_kmh = 5.0;
    /// Lead deceleration for braking/cut-in encounters (m/s^2).
    double lead_decel_ms2 = 6.0;
    /// Gap for cut-in encounters (m); for lead braking the policy gap is used.
    double cut_in_gap_m = 10.0;
};

/// Base arrival rates (per operational hour) per encounter kind at unit
/// densities; scaled by the environment at sampling time.
struct EncounterRates {
    double vru_crossing = 2.0;       ///< Scaled by env.vru_density.
    double lead_braking = 4.0;       ///< Scaled by env.traffic_density.
    double stationary_obstacle = 0.5;
    double animal_crossing = 0.2;    ///< Scaled by env.animal_density.
    double cut_in = 1.5;             ///< Scaled by env.traffic_density.
    double crossing_vehicle = 0.8;   ///< Scaled by env.traffic_density.
    double oncoming_drift = 0.1;     ///< Scaled by env.traffic_density.

    /// Effective rate of one kind in an environment.
    [[nodiscard]] double rate_of(EncounterKind kind, const Environment& env) const {
        switch (kind) {
            case EncounterKind::VruCrossing: return vru_crossing * env.vru_density;
            case EncounterKind::LeadVehicleBraking:
                return lead_braking * env.traffic_density;
            case EncounterKind::StationaryObstacle: return stationary_obstacle;
            case EncounterKind::AnimalCrossing: return animal_crossing * env.animal_density;
            case EncounterKind::CutIn: return cut_in * env.traffic_density;
            case EncounterKind::CrossingVehicle:
                return crossing_vehicle * env.traffic_density;
            case EncounterKind::OncomingDrift:
                return oncoming_drift * env.traffic_density;
        }
        return 0.0;
    }
};

/// Samples encounter parameters. Deterministic given the RNG.
class ScenarioSampler {
public:
    explicit ScenarioSampler(EncounterRates rates) : rates_(rates) {}

    [[nodiscard]] const EncounterRates& rates() const noexcept { return rates_; }

    /// Number of encounters of `kind` in `hours` of operation in `env`.
    [[nodiscard]] std::uint64_t sample_count(EncounterKind kind, const Environment& env,
                                             double hours, stats::Rng& rng) const;

    /// Counts for *every* kind in one batched draw: out[i] is the count of
    /// encounter_kind_from_index(i). Draw-sequence-identical to calling
    /// sample_count for kind 0..N-1 in index order (pinned by tests), so
    /// the per-stretch stream is unchanged when call sites batch.
    void sample_counts(const Environment& env, double hours, stats::Rng& rng,
                       std::array<std::uint64_t, kEncounterKindCount>& out) const {
        if (!(hours >= 0.0)) throw std::invalid_argument("sample_counts: hours >= 0");
        std::array<double, kEncounterKindCount> means;
        for (std::size_t i = 0; i < kEncounterKindCount; ++i) {
            means[i] = rates_.rate_of(encounter_kind_from_index(i), env) * hours;
        }
        rng.fill_poisson(means.data(), out.data(), kEncounterKindCount);
    }

    /// Parameters of one encounter of `kind` in `env`.
    [[nodiscard]] Encounter sample(EncounterKind kind, const Environment& env,
                                   stats::Rng& rng) const {
        Encounter e;
        e.kind = kind;
        switch (kind) {
            case EncounterKind::VruCrossing:
                // Most crossings are visible well in advance; a small share
                // is occluded (stepping out between parked cars) and appears
                // close to the bumper.
                e.conflict_distance_m = rng.bernoulli(0.015) ? rng.uniform(3.0, 15.0)
                                                             : rng.uniform(15.0, 80.0);
                // Walking to running pedestrians and slow cyclists.
                e.crossing_speed_kmh = rng.uniform(2.0, 14.0);
                break;
            case EncounterKind::LeadVehicleBraking:
                e.lead_decel_ms2 =
                    rng.uniform(3.0, friction_limited_decel_ms2(env.friction));
                break;
            case EncounterKind::StationaryObstacle:
                e.conflict_distance_m = rng.uniform(10.0, 200.0);
                break;
            case EncounterKind::AnimalCrossing:
                // Wildlife mostly breaks cover at distance; darting close to
                // the vehicle is the rarer case.
                e.conflict_distance_m = rng.bernoulli(0.08) ? rng.uniform(5.0, 20.0)
                                                            : rng.uniform(20.0, 120.0);
                e.crossing_speed_kmh = rng.uniform(4.0, 30.0);
                break;
            case EncounterKind::CutIn:
                e.cut_in_gap_m = rng.uniform(4.0, 25.0);
                e.lead_decel_ms2 = rng.uniform(2.0, 6.0);
                break;
            case EncounterKind::CrossingVehicle:
                // A vehicle enters the intersection conflict zone; it clears
                // quickly (crossing at road speed) but appears late when
                // view is blocked by corner buildings.
                e.conflict_distance_m = rng.bernoulli(0.1) ? rng.uniform(8.0, 25.0)
                                                           : rng.uniform(25.0, 120.0);
                e.crossing_speed_kmh = rng.uniform(20.0, 60.0);
                break;
            case EncounterKind::OncomingDrift:
                // An oncoming vehicle drifts across the centre line; the
                // conflict point approaches at combined speed, so the usable
                // distance is short even when first seen far away.
                e.conflict_distance_m = rng.uniform(20.0, 150.0);
                e.crossing_speed_kmh = rng.uniform(2.0, 8.0);  // lateral re-entry speed
                break;
        }
        return e;
    }

private:
    EncounterRates rates_;
};

/// Samples the environment for one operational stretch inside an ODD
/// (conditions outside the ODD are never operated in: the ADS hands over /
/// does not engage there, so in-ODD sampling is the correct exposure model).
[[nodiscard]] Environment sample_environment(const Odd& odd, stats::Rng& rng);

/// The distance (m) at which the proactive layer assumes a crossing actor
/// can emerge from occlusion: dense VRU environments (parked cars, urban
/// canyons) imply closer surprise appearances. Used by the tactical layer
/// as the sight distance for the defensive sight-speed rule.
[[nodiscard]] inline double assumed_occlusion_sight_m(const Environment& env) noexcept {
    return 100.0 / (1.0 + std::max(env.vru_density, 0.0));
}

/// A persistent environment process: consecutive operating stretches are
/// correlated (weather fronts last hours, a vehicle stays in one district
/// for a while) instead of independently redrawn. Weather and lighting
/// persist with the configured probability; the remaining fields are
/// refreshed around the persisted regime. Always yields in-ODD conditions.
class EnvironmentProcess {
public:
    /// `persistence` is the per-stretch probability that the current
    /// weather/lighting regime continues; in [0, 1).
    EnvironmentProcess(Odd odd, double persistence = 0.85);

    /// The next stretch's environment (advances the process).
    [[nodiscard]] Environment next(stats::Rng& rng);

    [[nodiscard]] const Environment& current() const noexcept { return current_; }

private:
    Odd odd_;
    double persistence_;
    bool started_ = false;
    Environment current_;
};

}  // namespace qrn::sim
