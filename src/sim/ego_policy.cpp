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

TacticalPolicy::Terms TacticalPolicy::terms() const noexcept {
    Terms out;
    out.latency_s = effective_latency_s();
    // Enforcement strength of the sight-speed rule grows with the
    // anticipation horizon; ~3 s gives two-thirds enforcement, 6 s about 86%.
    out.enforcement = 1.0 - std::exp(-anticipation_horizon_s / 3.0);
    return out;
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
