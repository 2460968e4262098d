// Perception model: when does the ADS see the conflict?
//
// Sec. IV: "The more precise information that is available in run-time, the
// more likely it is that the tactical decisions can enable higher speed
// etc, still being able to guarantee a safe driving style." The model
// produces, per encounter, the distance at which the conflict is detected:
// a nominal sensor range degraded by weather/lighting, with lognormal
// variation and occasional gross misses (late detection) representing
// performance limitations - one of the unified cause categories of Sec. V.
#pragma once

#include <algorithm>

#include "qrn/incident.h"
#include "sim/odd.h"
#include "stats/rng.h"

namespace qrn::sim {

/// Static parameters of the perception stack.
struct PerceptionModel {
    double nominal_range_m = 120.0;   ///< Clear-day detection range for cars.
    double vru_range_factor = 0.6;    ///< VRUs are detected later than cars.
    double animal_range_factor = 0.5; ///< Wildlife is hardest to classify.
    double rain_factor = 0.8;         ///< Multipliers per condition.
    double snow_factor = 0.6;
    double fog_factor = 0.4;
    double night_factor = 0.7;
    double dusk_factor = 0.85;
    double range_sigma_log = 0.15;    ///< Lognormal spread of actual range.
    double miss_probability = 1e-4;   ///< Gross miss: detection only at 10% range.
    double blackout_probability = 0.0;///< Fault injection: sensor blackout,
                                      ///< detection at 5% of range.

    /// Mean (pre-noise) detection range for an actor type in an environment.
    [[nodiscard]] double mean_range_m(ActorType actor, const Environment& env) const {
        double range = nominal_range_m;
        switch (actor) {
            case ActorType::Vru: range *= vru_range_factor; break;
            case ActorType::Animal: range *= animal_range_factor; break;
            default: break;
        }
        switch (env.weather) {
            case Weather::Clear: break;
            case Weather::Rain: range *= rain_factor; break;
            case Weather::Snow: range *= snow_factor; break;
            case Weather::Fog: range *= fog_factor; break;
        }
        switch (env.lighting) {
            case Lighting::Day: break;
            case Lighting::Dusk: range *= dusk_factor; break;
            case Lighting::Night: range *= night_factor; break;
        }
        return range;
    }

    /// Samples the actual detection distance for one encounter (inline: the
    /// fleet kernel draws one per encounter).
    [[nodiscard]] double sample_detection_distance_m(ActorType actor,
                                                     const Environment& env,
                                                     stats::Rng& rng) const {
        const double mean = mean_range_m(actor, env);
        // Lognormal noise around the mean with median = mean.
        double range = mean * rng.lognormal(0.0, range_sigma_log);
        if (rng.bernoulli(blackout_probability)) {
            range *= 0.05;  // injected sensing fault
        } else if (rng.bernoulli(miss_probability)) {
            range *= 0.10;  // gross perception miss
        }
        return std::max(range, 1.0);
    }
};

}  // namespace qrn::sim
