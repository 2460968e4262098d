#include "sim/ego_policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qrn::sim {

void TacticalPolicy::validate() const {
    if (!(speed_factor > 0.0) || speed_factor > 1.0) {
        throw std::invalid_argument("TacticalPolicy: speed_factor in (0, 1]");
    }
    if (vru_speed_adaptation < 0.0 || vru_speed_adaptation >= 1.0) {
        throw std::invalid_argument("TacticalPolicy: vru_speed_adaptation in [0, 1)");
    }
    if (!(following_time_gap_s > 0.0)) {
        throw std::invalid_argument("TacticalPolicy: following_time_gap_s > 0");
    }
    if (!(comfort_decel_ms2 > 0.0)) {
        throw std::invalid_argument("TacticalPolicy: comfort_decel_ms2 > 0");
    }
    if (!(emergency_decel_fraction > 0.0) || emergency_decel_fraction > 1.0) {
        throw std::invalid_argument("TacticalPolicy: emergency_decel_fraction in (0, 1]");
    }
    if (response_latency_s < 0.0) {
        throw std::invalid_argument("TacticalPolicy: response_latency_s >= 0");
    }
    if (!(anticipation_horizon_s >= 0.0)) {
        throw std::invalid_argument("TacticalPolicy: anticipation_horizon_s >= 0");
    }
}

double TacticalPolicy::cruise_speed_kmh(const Environment& env, const Odd& odd) const {
    double speed = std::min(env.speed_limit_kmh, odd.max_speed_limit_kmh) * speed_factor;
    if (env.vru_density > 1.0 && vru_speed_adaptation > 0.0) {
        // Proactive slow-down where crossings are frequent: each doubling
        // of the VRU density sheds `vru_speed_adaptation` of the speed.
        const double doublings = std::log2(env.vru_density);
        const double factor = std::pow(1.0 - vru_speed_adaptation, doublings);
        speed *= std::max(factor, 0.3);
    }
    return speed;
}

double TacticalPolicy::effective_latency_s() const noexcept {
    return response_latency_s * (0.3 + 0.7 * std::exp(-anticipation_horizon_s / 4.0));
}

double TacticalPolicy::speed_for_stop_within(double distance_m, double decel_ms2) const {
    if (!(distance_m >= 0.0)) {
        throw std::invalid_argument("speed_for_stop_within: distance must be >= 0");
    }
    if (!(decel_ms2 > 0.0)) {
        throw std::invalid_argument("speed_for_stop_within: decel must be > 0");
    }
    // Solve v * tr + v^2 / (2 a) = d for v.
    const double a = decel_ms2;
    const double tr = effective_latency_s();
    const double v = -a * tr + std::sqrt(a * a * tr * tr + 2.0 * a * distance_m);
    return ms_to_kmh(std::max(v, 0.0));
}

double TacticalPolicy::sight_speed_kmh(double sight_distance_m) const {
    return speed_for_stop_within(sight_distance_m, comfort_decel_ms2);
}

double TacticalPolicy::approach_speed_kmh(double cruise_speed_kmh,
                                          double sight_distance_m) const {
    const double sight = sight_speed_kmh(sight_distance_m);
    if (cruise_speed_kmh <= sight) return cruise_speed_kmh;
    // Enforcement strength grows with the anticipation horizon; ~3 s gives
    // two-thirds enforcement, 6 s about 86%.
    const double enforcement = 1.0 - std::exp(-anticipation_horizon_s / 3.0);
    return sight + (cruise_speed_kmh - sight) * (1.0 - enforcement);
}

BrakeResponse TacticalPolicy::braking_for(double speed_kmh, double detection_distance_m,
                                          double friction) const {
    BrakeResponse response;
    response.reaction_time_s = effective_latency_s();
    const double v = kmh_to_ms(speed_kmh);
    const double max_decel =
        emergency_decel_fraction * friction_limited_decel_ms2(friction);
    // Deceleration needed to stop just before the conflict point, after the
    // response latency has consumed part of the distance.
    const double braking_distance =
        std::max(detection_distance_m - v * response.reaction_time_s, 0.01);
    const double required = v * v / (2.0 * braking_distance);
    if (required <= comfort_decel_ms2) {
        response.deceleration_ms2 = comfort_decel_ms2;
    } else {
        // Emergency: apply the required deceleration with a 15% margin,
        // capped by what friction allows.
        response.deceleration_ms2 = std::min(required * 1.15, std::max(max_decel, 0.1));
    }
    return response;
}

BrakeResponse TacticalPolicy::braking_for_lead(double speed_kmh, double gap_m,
                                               double lead_decel_ms2,
                                               double friction) const {
    if (!(lead_decel_ms2 > 0.0)) {
        throw std::invalid_argument("braking_for_lead: lead deceleration must be > 0");
    }
    BrakeResponse response;
    response.reaction_time_s = effective_latency_s();
    const double v = kmh_to_ms(speed_kmh);
    const double max_decel =
        emergency_decel_fraction * friction_limited_decel_ms2(friction);
    // Ego's stopping point must not pass the lead's: v tr + v^2/(2 a_e) <=
    // gap + v^2/(2 a_l)  =>  a_e >= v^2 / (v^2/a_l + 2 (gap - v tr)).
    const double slack =
        v * v / lead_decel_ms2 + 2.0 * (gap_m - v * response.reaction_time_s);
    double required;
    if (slack <= 0.0) {
        required = max_decel;  // gap already consumed during the reaction
    } else {
        required = v * v / slack;
    }
    if (required <= comfort_decel_ms2) {
        response.deceleration_ms2 = comfort_decel_ms2;
    } else {
        response.deceleration_ms2 = std::min(required * 1.15, std::max(max_decel, 0.1));
    }
    return response;
}

bool TacticalPolicy::is_emergency(const BrakeResponse& response) const noexcept {
    return response.deceleration_ms2 > comfort_decel_ms2 + 1e-9;
}

double TacticalPolicy::following_gap_m(double speed_kmh) const {
    return std::max(2.0, kmh_to_ms(speed_kmh) * following_time_gap_s);
}

TacticalPolicy TacticalPolicy::cautious() {
    TacticalPolicy p;
    p.speed_factor = 0.85;
    p.vru_speed_adaptation = 0.35;
    p.following_time_gap_s = 3.0;
    p.comfort_decel_ms2 = 2.5;
    p.emergency_decel_fraction = 0.95;
    p.response_latency_s = 0.3;
    p.anticipation_horizon_s = 6.0;
    return p;
}

TacticalPolicy TacticalPolicy::nominal() { return TacticalPolicy{}; }

TacticalPolicy TacticalPolicy::performance() {
    TacticalPolicy p;
    p.speed_factor = 1.0;
    p.vru_speed_adaptation = 0.05;
    p.following_time_gap_s = 1.2;
    p.comfort_decel_ms2 = 3.5;
    p.emergency_decel_fraction = 0.9;
    p.response_latency_s = 0.5;
    p.anticipation_horizon_s = 2.5;
    return p;
}

std::optional<TacticalPolicy> TacticalPolicy::named(std::string_view name) {
    if (name == "cautious") return cautious();
    if (name == "nominal") return nominal();
    if (name == "performance") return performance();
    return std::nullopt;
}

}  // namespace qrn::sim
