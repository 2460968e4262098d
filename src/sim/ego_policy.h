// Tactical policy: the proactive decision making of the ADS.
//
// Central to the paper's argument (Sec. II-B 2-3): "an important part of an
// ADS feature's safety strategy is to avoid hazardous situations instead of
// making sure they can be handled", and "the design choices can elaborate a
// balance how much responsibility to achieve safety is put on reactive vs.
// proactive capabilities". The policy decides, per operational stretch, the
// travel speed (possibly below the limit where VRU density is high) and,
// per encounter, the braking response. The SEC2/ABL2 benches sweep these
// knobs to show that exposure to hard-braking situations - the classical
// HARA's 'given' input - is in fact a policy output.
//
// The per-encounter methods are defined inline, and each has an overload
// that takes the policy's constant Terms, so the fleet kernel evaluates
// the two exponentials behind them once per fleet, not per encounter.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "sim/dynamics.h"
#include "sim/odd.h"

namespace qrn::sim {

/// Tunable tactical parameters (the design choices of Sec. IV).
struct TacticalPolicy {
    /// Fraction of the speed limit used as cruise speed (0, 1].
    double speed_factor = 1.0;
    /// Extra speed reduction factor applied when VRU density exceeds 1
    /// (proactive exposure reduction). 0 disables adaptation.
    double vru_speed_adaptation = 0.2;
    /// Time gap (s) kept to lead vehicles.
    double following_time_gap_s = 2.0;
    /// Deceleration used for ordinary (comfort) braking, m/s^2. The paper's
    /// example: braking harder than 3 m/s^2 is considered uncomfortable.
    double comfort_decel_ms2 = 3.0;
    /// Fraction of the friction-limited deceleration the emergency response
    /// may use (<= 1).
    double emergency_decel_fraction = 0.9;
    /// Detection-to-braking latency of the automation (s).
    double response_latency_s = 0.4;
    /// Anticipation horizon (s): the proactive-vs-reactive balance knob of
    /// paper Sec. II-B(3). It acts twice: (a) it sets how strongly the
    /// tactical layer enforces the defensive sight-speed rule ("never be
    /// faster than what lets you stop comfortably within your sight
    /// distance"), and (b) an anticipating vehicle covers the brake, so the
    /// effective detection-to-braking latency shrinks toward 30% of the
    /// nominal value as the horizon grows. 0 is fully reactive.
    double anticipation_horizon_s = 4.0;

    /// Detection-to-braking latency after anticipation credit:
    /// response_latency_s * (0.3 + 0.7 exp(-horizon / 4 s)).
    [[nodiscard]] double effective_latency_s() const noexcept;

    /// The terms of the policy that depend on its parameters alone. A fleet
    /// computes them once (FleetSimulator and FleetSeverityModel validate
    /// their policy and never change it) and passes them to the overloads
    /// below that take them; each overload without Terms computes them on
    /// the call and returns the same value.
    struct Terms {
        double latency_s = 0.0;    ///< effective_latency_s().
        double enforcement = 0.0;  ///< Sight-rule strength, 1 - exp(-horizon / 3 s).
    };

    /// This policy's Terms.
    [[nodiscard]] Terms terms() const noexcept;

    /// Cruise speed (km/h) chosen in the given environment (respects the
    /// speed limit, the ODD cap and VRU-density adaptation).
    [[nodiscard]] double cruise_speed_kmh(const Environment& env, const Odd& odd) const;

    /// The speed (km/h) at which a conflict first seen `sight_distance_m`
    /// ahead can be handled by comfort braking alone (includes the response
    /// latency).
    [[nodiscard]] double sight_speed_kmh(double sight_distance_m) const {
        return sight_speed_kmh(sight_distance_m, terms());
    }
    [[nodiscard]] double sight_speed_kmh(double sight_distance_m, const Terms& terms) const {
        return speed_for_stop_within(sight_distance_m, comfort_decel_ms2, terms);
    }

    /// The speed (km/h) from which a stop at `decel_ms2` (after the
    /// effective latency) fits within `distance_m`. Used by the degraded-
    /// capability adaptation: an aware policy caps its speed so that even
    /// the reduced braking capability stops within the assumed sight.
    [[nodiscard]] double speed_for_stop_within(double distance_m, double decel_ms2) const {
        return speed_for_stop_within(distance_m, decel_ms2, terms());
    }
    [[nodiscard]] double speed_for_stop_within(double distance_m, double decel_ms2,
                                               const Terms& terms) const {
        if (!(distance_m >= 0.0)) {
            throw std::invalid_argument("speed_for_stop_within: distance must be >= 0");
        }
        if (!(decel_ms2 > 0.0)) {
            throw std::invalid_argument("speed_for_stop_within: decel must be > 0");
        }
        // Solve v * tr + v^2 / (2 a) = d for v.
        const double a = decel_ms2;
        const double tr = terms.latency_s;
        const double v = -a * tr + std::sqrt(a * a * tr * tr + 2.0 * a * distance_m);
        return ms_to_kmh(std::max(v, 0.0));
    }

    /// The speed actually carried into a conflict zone: cruise speed blended
    /// toward the sight speed with strength 1 - exp(-anticipation/3 s).
    /// Purely reactive policies (horizon 0) enter at cruise speed.
    [[nodiscard]] double approach_speed_kmh(double cruise_speed_kmh,
                                            double sight_distance_m) const {
        return approach_speed_kmh(cruise_speed_kmh, sight_distance_m, terms());
    }
    [[nodiscard]] double approach_speed_kmh(double cruise_speed_kmh, double sight_distance_m,
                                            const Terms& terms) const {
        const double sight = sight_speed_kmh(sight_distance_m, terms);
        if (cruise_speed_kmh <= sight) return cruise_speed_kmh;
        return sight + (cruise_speed_kmh - sight) * (1.0 - terms.enforcement);
    }

    /// Braking response for a conflict first seen at `detection_distance_m`
    /// while travelling at `speed_kmh` on `friction`: comfort braking when
    /// that suffices to stop in time, otherwise the required deceleration
    /// (with a 15% margin) up to the friction-limited emergency maximum.
    [[nodiscard]] BrakeResponse braking_for(double speed_kmh, double detection_distance_m,
                                            double friction) const {
        return braking_for(speed_kmh, detection_distance_m, friction, terms());
    }
    [[nodiscard]] BrakeResponse braking_for(double speed_kmh, double detection_distance_m,
                                            double friction, const Terms& terms) const {
        BrakeResponse response;
        response.reaction_time_s = terms.latency_s;
        const double v = kmh_to_ms(speed_kmh);
        const double max_decel =
            emergency_decel_fraction * friction_limited_decel_ms2(friction);
        // Deceleration needed to stop just before the conflict point, after
        // the response latency has consumed part of the distance.
        const double braking_distance =
            std::max(detection_distance_m - v * response.reaction_time_s, 0.01);
        const double required = v * v / (2.0 * braking_distance);
        if (required <= comfort_decel_ms2) {
            response.deceleration_ms2 = comfort_decel_ms2;
        } else {
            // Emergency: apply the required deceleration with a 15% margin,
            // capped by what friction allows.
            response.deceleration_ms2 =
                std::min(required * 1.15, std::max(max_decel, 0.1));
        }
        return response;
    }

    /// Braking response for a lead vehicle braking at `lead_decel_ms2` from
    /// a bumper gap of `gap_m`, both initially at `speed_kmh`. Unlike
    /// braking_for, the required deceleration credits the lead's own
    /// stopping distance: a_e >= v^2 / (v^2/a_l + 2 (gap - v tr)).
    [[nodiscard]] BrakeResponse braking_for_lead(double speed_kmh, double gap_m,
                                                 double lead_decel_ms2,
                                                 double friction) const {
        return braking_for_lead(speed_kmh, gap_m, lead_decel_ms2, friction, terms());
    }
    [[nodiscard]] BrakeResponse braking_for_lead(double speed_kmh, double gap_m,
                                                 double lead_decel_ms2, double friction,
                                                 const Terms& terms) const {
        if (!(lead_decel_ms2 > 0.0)) {
            throw std::invalid_argument("braking_for_lead: lead deceleration must be > 0");
        }
        BrakeResponse response;
        response.reaction_time_s = terms.latency_s;
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
            response.deceleration_ms2 =
                std::min(required * 1.15, std::max(max_decel, 0.1));
        }
        return response;
    }

    /// True iff the response demands more than comfort deceleration - the
    /// "brake significantly harder than 4 m/s^2" situation of Sec. II-B(3).
    [[nodiscard]] bool is_emergency(const BrakeResponse& response) const noexcept {
        return response.deceleration_ms2 > comfort_decel_ms2 + 1e-9;
    }

    /// Following gap (m) behind a lead vehicle at the given speed.
    [[nodiscard]] double following_gap_m(double speed_kmh) const {
        return std::max(2.0, kmh_to_ms(speed_kmh) * following_time_gap_s);
    }

    /// Preset: cautious style (lower speed, longer gaps, earlier braking).
    [[nodiscard]] static TacticalPolicy cautious();
    /// Preset: nominal style (the defaults above).
    [[nodiscard]] static TacticalPolicy nominal();
    /// Preset: performance style (full speed, short gaps, late reactions).
    [[nodiscard]] static TacticalPolicy performance();
    /// The preset called `name` ("cautious", "nominal", "performance"), or
    /// nullopt: the one name table behind --policy and campaign plans.
    [[nodiscard]] static std::optional<TacticalPolicy> named(std::string_view name);

    /// Checks parameter ranges; throws std::invalid_argument on violation.
    void validate() const;
};

}  // namespace qrn::sim
