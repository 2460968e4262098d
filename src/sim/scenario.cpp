#include "sim/scenario.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "sim/dynamics.h"

namespace qrn::sim {

EncounterKind encounter_kind_from_index(std::size_t index) {
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

ActorType counterparty_of(EncounterKind kind) noexcept {
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

double EncounterRates::rate_of(EncounterKind kind, const Environment& env) const {
    switch (kind) {
        case EncounterKind::VruCrossing: return vru_crossing * env.vru_density;
        case EncounterKind::LeadVehicleBraking: return lead_braking * env.traffic_density;
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

std::uint64_t ScenarioSampler::sample_count(EncounterKind kind, const Environment& env,
                                            double hours, stats::Rng& rng) const {
    if (!(hours >= 0.0)) throw std::invalid_argument("sample_count: hours >= 0");
    return rng.poisson(rates_.rate_of(kind, env) * hours);
}

void ScenarioSampler::sample_counts(
    const Environment& env, double hours, stats::Rng& rng,
    std::array<std::uint64_t, kEncounterKindCount>& out) const {
    if (!(hours >= 0.0)) throw std::invalid_argument("sample_counts: hours >= 0");
    std::array<double, kEncounterKindCount> means;
    for (std::size_t i = 0; i < kEncounterKindCount; ++i) {
        means[i] = rates_.rate_of(encounter_kind_from_index(i), env) * hours;
    }
    rng.fill_poisson(means.data(), out.data(), kEncounterKindCount);
}

Encounter ScenarioSampler::sample(EncounterKind kind, const Environment& env,
                                  stats::Rng& rng) const {
    Encounter e;
    e.kind = kind;
    switch (kind) {
        case EncounterKind::VruCrossing:
            // Most crossings are visible well in advance; a small share is
            // occluded (stepping out between parked cars) and appears close
            // to the bumper.
            e.conflict_distance_m = rng.bernoulli(0.015) ? rng.uniform(3.0, 15.0)
                                                         : rng.uniform(15.0, 80.0);
            // Walking to running pedestrians and slow cyclists.
            e.crossing_speed_kmh = rng.uniform(2.0, 14.0);
            break;
        case EncounterKind::LeadVehicleBraking:
            e.lead_decel_ms2 = rng.uniform(3.0, friction_limited_decel_ms2(env.friction));
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
            // quickly (crossing at road speed) but appears late when view
            // is blocked by corner buildings.
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

double assumed_occlusion_sight_m(const Environment& env) noexcept {
    return 100.0 / (1.0 + std::max(env.vru_density, 0.0));
}

Environment sample_environment(const Odd& odd, stats::Rng& rng) {
    Environment env;
    for (int attempt = 0; attempt < 256; ++attempt) {
        // Weather mix: mostly clear, some rain, occasional snow/fog.
        const double w = rng.uniform();
        env.weather = w < 0.70 ? Weather::Clear
                    : w < 0.90 ? Weather::Rain
                    : w < 0.96 ? Weather::Snow
                               : Weather::Fog;
        const double l = rng.uniform();
        env.lighting = l < 0.6 ? Lighting::Day : l < 0.75 ? Lighting::Dusk : Lighting::Night;
        env.speed_limit_kmh = std::min(odd.max_speed_limit_kmh,
                                       rng.bernoulli(0.5) ? odd.max_speed_limit_kmh
                                                          : rng.uniform(30.0, 120.0));
        env.friction = env.weather == Weather::Clear ? rng.uniform(0.8, 1.0)
                     : env.weather == Weather::Rain  ? rng.uniform(0.5, 0.8)
                     : env.weather == Weather::Snow  ? rng.uniform(0.15, 0.4)
                                                     : rng.uniform(0.6, 0.9);
        env.vru_density = std::min(odd.max_vru_density, rng.exponential(0.7));
        env.traffic_density = rng.uniform(0.3, 2.0);
        env.animal_density = rng.exponential(5.0);
        if (odd.contains(env)) return env;
    }
    // The ODD admits at least the benign corner; construct it directly.
    env.weather = Weather::Clear;
    env.lighting = Lighting::Day;
    env.speed_limit_kmh = odd.max_speed_limit_kmh;
    env.friction = std::max(0.9, odd.min_friction);
    env.vru_density = std::min(1.0, odd.max_vru_density);
    env.traffic_density = 1.0;
    env.animal_density = 0.1;
    return env;
}

EnvironmentProcess::EnvironmentProcess(Odd odd, double persistence)
    : odd_(odd), persistence_(persistence) {
    if (persistence < 0.0 || persistence >= 1.0) {
        throw std::invalid_argument("EnvironmentProcess: persistence in [0, 1)");
    }
}

Environment EnvironmentProcess::next(stats::Rng& rng) {
    if (!started_ || !rng.bernoulli(persistence_)) {
        // Regime change: a fresh in-ODD draw.
        current_ = sample_environment(odd_, rng);
        started_ = true;
        return current_;
    }
    // The regime persists: weather, lighting and the road class stay; the
    // local densities and friction wobble around the regime's values.
    Environment env = current_;
    env.friction = std::clamp(env.friction + rng.uniform(-0.05, 0.05),
                              odd_.min_friction, 1.0);
    env.vru_density =
        std::clamp(env.vru_density * rng.uniform(0.8, 1.25), 0.0, odd_.max_vru_density);
    env.traffic_density = std::clamp(env.traffic_density * rng.uniform(0.85, 1.2), 0.1, 3.0);
    env.animal_density = std::max(0.0, env.animal_density * rng.uniform(0.8, 1.25));
    if (!odd_.contains(env)) env = sample_environment(odd_, rng);
    current_ = env;
    return current_;
}

}  // namespace qrn::sim
