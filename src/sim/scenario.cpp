#include "sim/scenario.h"

#include <algorithm>
#include <stdexcept>

namespace qrn::sim {

std::uint64_t ScenarioSampler::sample_count(EncounterKind kind, const Environment& env,
                                            double hours, stats::Rng& rng) const {
    if (!(hours >= 0.0)) throw std::invalid_argument("sample_count: hours >= 0");
    return rng.poisson(rates_.rate_of(kind, env) * hours);
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
