// Fleet simulation: Monte-Carlo operation of the ADS over many hours.
//
// Operation is simulated as a sequence of one-hour stretches, each with a
// freshly sampled in-ODD environment, a policy-chosen cruise speed, and
// Poisson-arriving encounters of each kind. Every encounter is resolved
// through perception -> tactical braking -> kinematics, and incidents are
// logged. The log converts directly to the per-incident-type evidence that
// qrn::verify_against_evidence consumes - closing the loop from risk norm
// to fleet data.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "qrn/frequency.h"
#include "qrn/incident.h"
#include "qrn/incident_type.h"
#include "qrn/verification.h"
#include "sim/ego_policy.h"
#include "sim/incident_detector.h"
#include "sim/odd.h"
#include "sim/perception.h"
#include "sim/scenario.h"
#include "stats/rng.h"

namespace qrn::sim {

/// Fault injection: the paper's Sec. II-B(3) brake-degradation example.
///
/// "A vehicle-internal fault leading to a reduced braking capacity of only
/// 4 m/s^2 ... We could say that as long as the tactical decisions know
/// about the current actual braking capability, it should be possible to
/// safely adjust the driving style accordingly." When a degradation is
/// active, the physically available deceleration is capped; an *aware*
/// policy additionally adapts its speed and following gaps to the reduced
/// capability, an unaware one drives as if healthy.
struct FaultInjection {
    /// Probability that any given operational stretch runs with degraded
    /// brakes (0 disables the fault).
    double brake_degradation_probability = 0.0;
    /// Maximum deceleration physically available while degraded (m/s^2).
    double degraded_decel_cap_ms2 = 4.0;
    /// Whether the tactical layer knows the current braking capability.
    bool policy_aware = true;
};

/// Secondary-conflict model: consequences of ego's own manoeuvres on the
/// surrounding traffic. Paper Fig. 4 (lower half) includes incidents where
/// ego is "a causing factor in an incident involving other road users";
/// Sec. III-B notes these induced incidents "may be more difficult to
/// clearly define". Here they arise mechanically: every emergency braking
/// by ego forces followers to react; a follower may rear-end ego (an
/// ego-involved Car collision) or, swerving, collide with a third party
/// (an induced incident).
struct SecondaryConflicts {
    /// Probability that an emergency braking has a close follower.
    double follower_presence = 0.3;
    /// Given a follower, probability it fails to stop and rear-ends ego.
    double rear_end_probability = 0.02;
    /// Given a follower that avoided ego by swerving, probability it hits a
    /// third party instead (the induced incident).
    double induced_probability = 0.01;
};

/// ODD-exit and minimal-risk-manoeuvre model.
//
/// Sec. IV lists "ODD monitoring" and "minimal risk manoeuvre" among the
/// ADS functions the FSC must cover. Conditions can leave the declared ODD
/// mid-operation (weather turning to snow, fog rolling in). A monitored
/// exit triggers the MRM - a controlled stop that carries its own small
/// secondary risk; a missed exit leaves the vehicle operating outside its
/// ODD with degraded friction and perception for the rest of the stretch.
struct OddExitModel {
    /// Probability per operational stretch that conditions leave the ODD.
    double exit_probability = 0.0;
    /// Probability the ODD monitor detects the exit (triggers the MRM).
    double detection_probability = 0.95;
    /// Probability the MRM itself produces a low-speed rear-end incident.
    double mrm_incident_probability = 0.005;
};

/// Everything that defines one fleet configuration.
struct FleetConfig {
    Odd odd = Odd::urban();
    TacticalPolicy policy = TacticalPolicy::nominal();
    PerceptionModel perception;
    EncounterRates rates;
    DetectorConfig detector;
    FaultInjection faults;
    SecondaryConflicts secondary;
    OddExitModel odd_exit;
    /// Per-stretch probability that the weather/lighting regime persists
    /// (see EnvironmentProcess); 0 redraws conditions independently.
    double environment_persistence = 0.85;
    std::uint64_t seed = 42;
};

/// Result of a fleet run. Incidents are rows in the order the stretches
/// logged them; the store's 28-byte record (store/format.h) is only their
/// on-disk encoding.
struct IncidentLog {
    std::vector<Incident> incidents;
    ExposureHours exposure;
    std::uint64_t encounters = 0;          ///< Total conflicts resolved.
    std::uint64_t emergency_brakings = 0;  ///< Encounters needing more than
                                           ///< the comfort deceleration.
    std::uint64_t degraded_hours = 0;      ///< Stretches run with degraded brakes.
    std::uint64_t odd_exits = 0;           ///< Stretches whose conditions left the ODD.
    std::uint64_t mrm_executions = 0;      ///< Detected exits ending in an MRM.
    std::uint64_t unmonitored_exits = 0;   ///< Exits the monitor missed.

    /// Rate of logged incidents (all kinds together).
    [[nodiscard]] Frequency incident_rate() const;

    /// Observed events per incident type, ready for Eq. 1 verification.
    /// Incidents matching no type are ignored (they are outside the margin
    /// space the goals constrain; the MECE argument lives at the
    /// classification level, not the recording thresholds). One pass over
    /// the log computes all per-type counts (count_matching_all).
    [[nodiscard]] std::vector<TypeEvidence> evidence_for(
        const IncidentTypeSet& types) const;

    /// Count of induced incidents (ego a causing factor, not a party).
    [[nodiscard]] std::uint64_t induced_count() const;

    /// Folds another (partial) log into this one: incidents are appended
    /// in the other log's order and every counter (including exposure) is
    /// summed. Folding per-stretch partials in stretch order reproduces
    /// the log a serial simulation would have written.
    void merge(IncidentLog&& other);
};

/// One encounter resolved through perception -> tactical braking ->
/// kinematics (plus the evasion / correction behaviour of the counterpart).
struct ResolvedEncounter {
    Encounter encounter;
    EncounterOutcome outcome;
    bool emergency = false;  ///< Ego needed more than comfort deceleration.
};

/// Samples and resolves a single encounter of `kind` in `env`, drawing from
/// `rng` in the exact sequence the fleet stretch loop uses (sample ->
/// detection distance -> kind-specific resolution draws). Shared by
/// FleetSimulator::run_stretch and the splitting driver's severity model so
/// the two can never drift apart. `decel_cap` is the physically available
/// deceleration (infinity when brakes are healthy), `gap_stretch` the
/// following-gap multiplier an aware degraded policy applies (1 otherwise)
/// and `terms` the policy's constant terms, computed once per fleet.
/// Defined inline, as is everything it calls per encounter (sampler,
/// perception, policy, kinematics, detector, RNG): run_stretch is
/// [[gnu::flatten]], so GCC resolves each encounter as one inlined body
/// that calls out only to libm, and to validate() per incident (DESIGN.md,
/// "Kernel layout").
[[nodiscard]] inline ResolvedEncounter resolve_encounter(
    EncounterKind kind, const Environment& env, double cruise_kmh,
    double decel_cap, double gap_stretch, const TacticalPolicy& policy,
    const TacticalPolicy::Terms& terms, const PerceptionModel& perception,
    const ScenarioSampler& sampler, stats::Rng& rng) {
    ResolvedEncounter out;
    out.encounter = sampler.sample(kind, env, rng);
    const Encounter& encounter = out.encounter;

    const ActorType actor = counterparty_of(kind);
    const double detect_m = perception.sample_detection_distance_m(actor, env, rng);

    EncounterOutcome outcome;
    bool emergency = false;
    switch (kind) {
        case EncounterKind::VruCrossing:
        case EncounterKind::AnimalCrossing:
        case EncounterKind::CrossingVehicle: {
            // The conflict is actionable only once detected; the
            // proactive layer has already slowed toward the
            // sight-speed rule for the prevailing visibility and
            // the density-dependent occlusion risk.
            const double seen_at = std::min(encounter.conflict_distance_m, detect_m);
            const double assumed_sight =
                std::min(detect_m, assumed_occlusion_sight_m(env));
            const double speed = policy.approach_speed_kmh(cruise_kmh, assumed_sight, terms);
            BrakeResponse response = policy.braking_for(speed, seen_at, env.friction, terms);
            // Physics, not policy: degraded brakes cap what the
            // vehicle can actually do.
            response.deceleration_ms2 = std::min(response.deceleration_ms2, decel_cap);
            emergency = policy.is_emergency(response);
            outcome = resolve_crossing(speed, seen_at, encounter.crossing_speed_kmh,
                                       response);
            // A collision course does not always end in contact:
            // the crossing actor can evade (stop, retreat, leap)
            // when the closing speed leaves it a chance, and ego
            // can often steer around a single crossing actor.
            if (outcome.collision) {
                const double agility =
                    kind == EncounterKind::VruCrossing       ? 0.85
                    : kind == EncounterKind::CrossingVehicle ? 0.6
                                                             : 0.5;
                const double p_evade =
                    agility * std::exp(-outcome.impact_speed_kmh / 40.0);
                const double p_swerve =
                    0.5 * std::exp(-outcome.impact_speed_kmh / 60.0);
                const double p_avoid = 1.0 - (1.0 - p_evade) * (1.0 - p_swerve);
                if (rng.bernoulli(p_avoid)) {
                    EncounterOutcome avoided;
                    avoided.min_gap_m = rng.uniform(0.2, 1.0);
                    avoided.closing_speed_kmh = outcome.impact_speed_kmh;
                    outcome = avoided;
                }
            }
            break;
        }
        case EncounterKind::OncomingDrift: {
            // The conflict point approaches at roughly combined
            // speed: ego only covers about half the sighting
            // distance before the meeting point, and a contact
            // is (near) head-on, doubling the impact delta-v.
            const double seen_at =
                std::min(encounter.conflict_distance_m, detect_m) * 0.5;
            BrakeResponse response =
                policy.braking_for(cruise_kmh, seen_at, env.friction, terms);
            response.deceleration_ms2 = std::min(response.deceleration_ms2, decel_cap);
            emergency = policy.is_emergency(response);
            outcome = resolve_crossing(cruise_kmh, seen_at,
                                       encounter.crossing_speed_kmh, response);
            if (outcome.collision) {
                // The drifting driver usually corrects in time.
                const double p_correct =
                    0.9 * std::exp(-outcome.impact_speed_kmh / 80.0);
                if (rng.bernoulli(p_correct)) {
                    EncounterOutcome corrected;
                    corrected.min_gap_m = rng.uniform(0.2, 1.2);
                    corrected.closing_speed_kmh = 2.0 * outcome.impact_speed_kmh;
                    outcome = corrected;
                } else {
                    outcome.impact_speed_kmh *= 2.0;  // head-on
                }
            }
            break;
        }
        case EncounterKind::StationaryObstacle: {
            const double seen_at = std::min(encounter.conflict_distance_m, detect_m);
            const double speed = policy.approach_speed_kmh(cruise_kmh, detect_m, terms);
            BrakeResponse response = policy.braking_for(speed, seen_at, env.friction, terms);
            response.deceleration_ms2 = std::min(response.deceleration_ms2, decel_cap);
            emergency = policy.is_emergency(response);
            outcome = resolve_stationary(speed, seen_at, response);
            break;
        }
        case EncounterKind::LeadVehicleBraking: {
            const double gap = policy.following_gap_m(cruise_kmh) * gap_stretch;
            BrakeResponse response = policy.braking_for_lead(
                cruise_kmh, gap, encounter.lead_decel_ms2, env.friction, terms);
            response.deceleration_ms2 = std::min(response.deceleration_ms2, decel_cap);
            emergency = policy.is_emergency(response);
            outcome =
                resolve_lead_braking(cruise_kmh, gap, encounter.lead_decel_ms2, response);
            break;
        }
        case EncounterKind::CutIn: {
            // After the cut-in the intruder brakes mildly; ego
            // must manage from the reduced gap.
            BrakeResponse response = policy.braking_for_lead(
                cruise_kmh, encounter.cut_in_gap_m, encounter.lead_decel_ms2,
                env.friction, terms);
            response.deceleration_ms2 = std::min(response.deceleration_ms2, decel_cap);
            emergency = policy.is_emergency(response);
            outcome = resolve_lead_braking(cruise_kmh, encounter.cut_in_gap_m,
                                           encounter.lead_decel_ms2, response);
            break;
        }
    }
    out.outcome = outcome;
    out.emergency = emergency;
    return out;
}

/// Monte-Carlo fleet simulator. Deterministic for a given config (seed):
/// the environment regime chain is sampled serially from its own RNG
/// stream, and every operational stretch then draws from a stream derived
/// from (seed, stretch index) alone - so the log is bit-identical for
/// every `jobs` value, including the serial path at jobs == 1.
class FleetSimulator {
public:
    explicit FleetSimulator(FleetConfig config);

    [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }

    /// Simulates `hours` of in-ODD operation and returns the incident log.
    /// With jobs > 1 the stretches are resolved in parallel chunks on the
    /// shared thread pool and merged in stretch order.
    [[nodiscard]] IncidentLog run(double hours, unsigned jobs = 1) const;

private:
    /// Per-chunk scratch reused across the stretches of one chunk, so the
    /// inner loop performs no per-stretch setup work beyond seeding its
    /// RNG stream (the chunk's partial IncidentLog doubles as the incident
    /// accumulation buffer, its columns keeping their capacity).
    struct StretchScratch {
        std::array<std::uint64_t, kEncounterKindCount> encounter_counts{};
    };

    /// Simulates stretch `index` (duration `stretch` hours, environment
    /// `env`) into `log`, drawing only from the stretch's own RNG stream.
    /// `sampler` is hoisted out by run() (one instance per fleet run, not
    /// per stretch); `scratch` is owned by the calling chunk.
    void run_stretch(std::size_t index, double stretch, Environment env,
                     const ScenarioSampler& sampler, StretchScratch& scratch,
                     IncidentLog& log) const;

    FleetConfig config_;
    /// config_.policy's constant terms: the policy is validated once and
    /// never changes, so the kernel never re-evaluates them.
    TacticalPolicy::Terms terms_;
};

}  // namespace qrn::sim
