// Longitudinal kinematics: resolving encounters into outcomes.
//
// The simulator reduces every encounter to a longitudinal conflict: ego
// approaches a conflict point (a crossing VRU/animal, a stationary
// obstacle, a braking lead vehicle) and responds with reaction latency
// followed by constant deceleration. Outcomes are either a collision with
// an impact speed or a miss with a minimum separation - exactly the
// tolerance-margin measurements the QRN incident types are defined over.
//
// Closed-form solutions are used for single-obstacle cases and an exact
// piecewise-quadratic solution for the two-vehicle (lead braking / cut-in)
// cases. Everything here is defined inline: the fleet kernel resolves
// every encounter through these functions (FleetSimulator::run_stretch).
#pragma once

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace qrn::sim {

/// Converts km/h to m/s.
[[nodiscard]] constexpr double kmh_to_ms(double kmh) noexcept { return kmh / 3.6; }
/// Converts m/s to km/h.
[[nodiscard]] constexpr double ms_to_kmh(double ms) noexcept { return ms * 3.6; }

/// Outcome of one resolved encounter.
struct EncounterOutcome {
    bool collision = false;
    double impact_speed_kmh = 0.0;  ///< Relative speed at contact (0 if miss).
    double min_gap_m = 0.0;         ///< Minimum separation achieved (0 if collision).
    double closing_speed_kmh = 0.0; ///< Relative speed at the minimum-gap moment,
                                    ///< or at conflict-zone passage for crossings.
};

/// Ego's braking response profile for one encounter.
struct BrakeResponse {
    double reaction_time_s = 0.5;   ///< Detection-to-deceleration latency.
    double deceleration_ms2 = 6.0;  ///< Constant braking deceleration (> 0).
};

/// Maximum deceleration available at the given tyre-road friction
/// (mu * g, g = 9.81 m/s^2).
[[nodiscard]] inline double friction_limited_decel_ms2(double friction) noexcept {
    return std::max(friction, 0.0) * 9.81;
}

namespace detail {

inline constexpr double kLaneWidthM = 3.5;
inline constexpr double kActorWidthM = 0.5;

inline void require_valid(double speed_kmh, double distance_m,
                          const BrakeResponse& response) {
    if (!std::isfinite(speed_kmh) || speed_kmh < 0.0) {
        throw std::invalid_argument("dynamics: speed must be finite >= 0");
    }
    if (!std::isfinite(distance_m) || distance_m < 0.0) {
        throw std::invalid_argument("dynamics: distance must be finite >= 0");
    }
    if (!std::isfinite(response.reaction_time_s) || response.reaction_time_s < 0.0) {
        throw std::invalid_argument("dynamics: reaction time must be finite >= 0");
    }
    if (!std::isfinite(response.deceleration_ms2) || response.deceleration_ms2 <= 0.0) {
        throw std::invalid_argument("dynamics: deceleration must be > 0");
    }
}

/// Ego speed (m/s) at time t.
inline double ego_speed(double v_ms, double t, const BrakeResponse& r) {
    if (t <= r.reaction_time_s) return v_ms;
    return std::max(0.0, v_ms - r.deceleration_ms2 * (t - r.reaction_time_s));
}

/// First time ego reaches distance d, or +infinity if it stops short.
inline double time_to_reach(double v_ms, double d, const BrakeResponse& r) {
    if (d <= 0.0) return 0.0;
    if (v_ms <= 0.0) return std::numeric_limits<double>::infinity();
    const double tr = r.reaction_time_s;
    const double a = r.deceleration_ms2;
    if (d <= v_ms * tr) return d / v_ms;
    const double total = v_ms * tr + v_ms * v_ms / (2.0 * a);
    if (d > total) return std::numeric_limits<double>::infinity();
    // Solve v*tb - a/2 tb^2 = d - v*tr for the smaller root.
    const double rem = d - v_ms * tr;
    const double disc = v_ms * v_ms - 2.0 * a * rem;
    const double tb = (v_ms - std::sqrt(std::max(disc, 0.0))) / a;
    return tr + tb;
}

/// Ego speed within the final metre before its stopping point: the speed it
/// carried when the remaining gap to the closest approach was 1 m. Used as
/// the "closing speed" of a braking-to-stop near pass.
inline double speed_in_last_metre(double min_gap_m, const BrakeResponse& r) {
    if (min_gap_m >= 1.0) return 0.0;
    return ms_to_kmh(std::sqrt(2.0 * r.deceleration_ms2 * (1.0 - min_gap_m)));
}

}  // namespace detail

/// Stationary obstacle at `distance_m` ahead, ego at `speed_kmh`.
/// Requires distance >= 0, speed >= 0, and a valid response.
[[nodiscard]] inline EncounterOutcome resolve_stationary(double speed_kmh,
                                                         double distance_m,
                                                         const BrakeResponse& response) {
    detail::require_valid(speed_kmh, distance_m, response);
    EncounterOutcome out;
    const double v = kmh_to_ms(speed_kmh);
    const double t_hit = detail::time_to_reach(v, distance_m, response);
    if (std::isfinite(t_hit)) {
        out.collision = true;
        out.impact_speed_kmh = ms_to_kmh(detail::ego_speed(v, t_hit, response));
        // Fully stopped exactly at the obstacle counts as a zero-speed
        // touch; treat speeds below 1e-9 as a miss with zero gap.
        if (out.impact_speed_kmh < 1e-9) {
            out.collision = false;
            out.impact_speed_kmh = 0.0;
            out.min_gap_m = 0.0;
            out.closing_speed_kmh = detail::speed_in_last_metre(0.0, response);
        }
        return out;
    }
    const double travelled =
        v * response.reaction_time_s + v * v / (2.0 * response.deceleration_ms2);
    out.min_gap_m = distance_m - travelled;
    out.closing_speed_kmh = detail::speed_in_last_metre(out.min_gap_m, response);
    return out;
}

/// Crossing actor (VRU/animal): enters ego's 3.5 m-wide lane at the conflict
/// point `distance_m` ahead at time 0, crossing at `crossing_speed_kmh`.
/// Ego is at `speed_kmh`. Collision when ego reaches the conflict point
/// while the actor occupies the lane and ego still moves; otherwise a miss
/// whose margin is the separation when the paths are closest in time.
[[nodiscard]] inline EncounterOutcome resolve_crossing(double speed_kmh, double distance_m,
                                                       double crossing_speed_kmh,
                                                       const BrakeResponse& response) {
    detail::require_valid(speed_kmh, distance_m, response);
    if (!std::isfinite(crossing_speed_kmh) || crossing_speed_kmh <= 0.0) {
        throw std::invalid_argument("resolve_crossing: crossing speed must be > 0");
    }
    EncounterOutcome out;
    const double v = kmh_to_ms(speed_kmh);
    const double vc = kmh_to_ms(crossing_speed_kmh);
    const double t_clear = (detail::kLaneWidthM + detail::kActorWidthM) / vc;
    const double t_reach = detail::time_to_reach(v, distance_m, response);

    if (t_reach <= t_clear) {
        // Ego arrives at the conflict point while the actor occupies the lane.
        const double impact = detail::ego_speed(v, t_reach, response);
        if (impact > 1e-9) {
            out.collision = true;
            out.impact_speed_kmh = ms_to_kmh(impact);
            return out;
        }
        // Rolled to a stop exactly at the conflict point.
        out.min_gap_m = 0.0;
        out.closing_speed_kmh = detail::speed_in_last_metre(0.0, response);
        return out;
    }
    if (std::isfinite(t_reach)) {
        // Actor cleared the lane before ego arrived: the margin is how far
        // beyond the lane the actor has moved when ego crosses.
        out.min_gap_m = vc * (t_reach - t_clear);
        out.closing_speed_kmh = ms_to_kmh(detail::ego_speed(v, t_reach, response));
        return out;
    }
    // Ego stopped short of the conflict point.
    const double travelled =
        v * response.reaction_time_s + v * v / (2.0 * response.deceleration_ms2);
    out.min_gap_m = distance_m - travelled;
    out.closing_speed_kmh = detail::speed_in_last_metre(out.min_gap_m, response);
    return out;
}

/// Lead vehicle braking: ego follows at `gap_m` with both initially at
/// `speed_kmh`; at time 0 the lead starts braking at `lead_decel_ms2` to a
/// stop; ego responds per `response`. Solved exactly: both speed profiles
/// are piecewise linear, so the gap is piecewise quadratic.
[[nodiscard]] inline EncounterOutcome resolve_lead_braking(double speed_kmh, double gap_m,
                                                           double lead_decel_ms2,
                                                           const BrakeResponse& response) {
    detail::require_valid(speed_kmh, gap_m, response);
    if (!std::isfinite(lead_decel_ms2) || lead_decel_ms2 <= 0.0) {
        throw std::invalid_argument("resolve_lead_braking: lead deceleration must be > 0");
    }
    EncounterOutcome out;
    const double v0 = kmh_to_ms(speed_kmh);
    if (v0 <= 0.0) {
        out.min_gap_m = gap_m;
        return out;
    }

    // Both speed profiles are piecewise linear (lead brakes from t = 0, ego
    // from its reaction time, each until standstill), so the gap is
    // piecewise quadratic between the profile breakpoints. Solving each
    // segment exactly replaces the former 1 ms Euler integration - this is
    // the campaign hot path, called once per lead-braking/cut-in encounter.
    const double tr = response.reaction_time_s;
    const double ae = response.deceleration_ms2;
    const double al = lead_decel_ms2;
    const double lead_stop = v0 / al;
    const double ego_stop = tr + v0 / ae;
    const double t_end = std::max(lead_stop, ego_stop);

    const auto lead_speed = [&](double t) {
        return t < lead_stop ? v0 - al * t : 0.0;
    };
    const auto ego_speed_at = [&](double t) {
        if (t <= tr) return v0;
        return t < ego_stop ? v0 - ae * (t - tr) : 0.0;
    };

    double knots[4] = {tr, lead_stop, ego_stop, t_end};
    std::sort(std::begin(knots), std::end(knots));

    double gap = gap_m;
    double min_gap = gap_m;
    double closing_at_min = 0.0;
    double a = 0.0;
    for (const double b : knots) {
        if (b <= a || a >= t_end) continue;
        // On [a, b] the closing speed w(t) = ego - lead is linear:
        // w(t) = w_a + s (t - a); the gap shrinks by its integral.
        const double w_a = ego_speed_at(a) - lead_speed(a);
        const double w_b = ego_speed_at(b) - lead_speed(b);
        const double s = (w_b - w_a) / (b - a);
        // Contact inside the segment: gap - w_a u - s/2 u^2 = 0 with
        // u = t - a; take the earliest root where the gap still closes.
        if (w_a > 0.0 || (w_a == 0.0 && s > 0.0)) {
            const double disc = w_a * w_a + 2.0 * s * gap;
            if (disc >= 0.0) {
                const double sq = std::sqrt(disc);
                // Smallest positive root of (s/2) u^2 + w_a u - gap = 0.
                double u = -1.0;
                if (s != 0.0) {
                    const double u1 = (-w_a + sq) / s;
                    const double u2 = (-w_a - sq) / s;
                    u = std::min(u1 > 0.0 ? u1 : std::numeric_limits<double>::infinity(),
                                 u2 > 0.0 ? u2 : std::numeric_limits<double>::infinity());
                } else if (w_a > 0.0) {
                    u = gap / w_a;
                }
                if (u >= 0.0 && u <= b - a + 1e-12) {
                    const double t_hit = a + u;
                    out.collision = true;
                    out.impact_speed_kmh = ms_to_kmh(
                        std::max(0.0, ego_speed_at(t_hit) - lead_speed(t_hit)));
                    return out;
                }
            }
        }
        // The in-segment gap minimum is at the w = 0 crossing (if the
        // closing speed changes sign inside) or at the segment end.
        const double gap_b = gap - (w_a + w_b) * 0.5 * (b - a);
        if (w_a > 0.0 && w_b < 0.0) {
            const double u_star = -w_a / s;  // s < 0 here
            const double gap_star = gap - w_a * u_star - 0.5 * s * u_star * u_star;
            if (gap_star < min_gap) {
                min_gap = gap_star;
                closing_at_min = 0.0;
            }
        }
        if (gap_b < min_gap) {
            min_gap = gap_b;
            closing_at_min = std::max(0.0, w_b);
        }
        gap = gap_b;
        a = b;
    }
    out.min_gap_m = std::max(min_gap, 0.0);
    out.closing_speed_kmh = ms_to_kmh(closing_at_min);
    return out;
}

/// Stopping distance (m) including reaction: v*tr + v^2 / (2a).
[[nodiscard]] inline double stopping_distance_m(double speed_kmh,
                                                const BrakeResponse& response) {
    detail::require_valid(speed_kmh, 0.0, response);
    const double v = kmh_to_ms(speed_kmh);
    return v * response.reaction_time_s + v * v / (2.0 * response.deceleration_ms2);
}

}  // namespace qrn::sim
