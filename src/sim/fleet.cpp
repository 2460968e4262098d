#include "sim/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "exec/parallel.h"
#include "obs/metrics.h"

namespace qrn::sim {

Frequency IncidentLog::incident_rate() const {
    return Frequency::of_count(static_cast<double>(incidents.size()), exposure);
}

std::vector<TypeEvidence> IncidentLog::evidence_for(const IncidentTypeSet& types) const {
    const std::vector<std::uint64_t> counts = count_matching_all(incidents, types);
    std::vector<TypeEvidence> out;
    out.reserve(types.size());
    for (std::size_t k = 0; k < types.size(); ++k) {
        TypeEvidence e;
        e.incident_type_id = types.at(k).id();
        e.events = counts[k];
        e.exposure = exposure;
        out.push_back(std::move(e));
    }
    return out;
}

std::uint64_t IncidentLog::induced_count() const {
    return static_cast<std::uint64_t>(
        std::count_if(incidents.begin(), incidents.end(),
                      [](const Incident& incident) { return incident.ego_causing_factor; }));
}

void IncidentLog::merge(IncidentLog&& other) {
    incidents.insert(incidents.end(), other.incidents.begin(), other.incidents.end());
    exposure += other.exposure;
    encounters += other.encounters;
    emergency_brakings += other.emergency_brakings;
    degraded_hours += other.degraded_hours;
    odd_exits += other.odd_exits;
    mrm_executions += other.mrm_executions;
    unmonitored_exits += other.unmonitored_exits;
}

FleetSimulator::FleetSimulator(FleetConfig config) : config_(std::move(config)) {
    config_.policy.validate();
    terms_ = config_.policy.terms();
}

IncidentLog FleetSimulator::run(double hours, unsigned jobs) const {
    if (!(hours > 0.0) || !std::isfinite(hours)) {
        throw std::invalid_argument("FleetSimulator::run: hours must be > 0");
    }

    const auto whole_hours = static_cast<std::uint64_t>(hours);
    const double remainder = hours - static_cast<double>(whole_hours);
    const std::size_t stretches =
        static_cast<std::size_t>(whole_hours) + (remainder > 0.0 ? 1 : 0);

    // Phase 1 (serial, cheap): the environment regime chain is a Markov
    // process across stretches, so it is advanced in order from its own
    // dedicated RNG stream (stream 0 of the fleet seed).
    std::vector<Environment> environments;
    environments.reserve(stretches);
    {
        // Scenario generation is the serial prologue of every fleet run;
        // timed (not spanned) because campaigns call run() from pool
        // workers and timer aggregates stay schedule-independent.
        const obs::ScopedTimer timer("sim.scenario_generation_ns");
        stats::Rng env_rng = stats::Rng::stream(config_.seed, 0);
        EnvironmentProcess environment(config_.odd, config_.environment_persistence);
        for (std::size_t h = 0; h < stretches; ++h) {
            environments.push_back(environment.next(env_rng));
        }
    }

    // Phase 2 (parallel): every stretch draws exclusively from its own RNG
    // stream (stream h+1), so chunks of stretches resolve independently and
    // merging the partial logs in stretch order is bit-identical to the
    // serial loop for every jobs value.
    // The sampler is stateless given the rates: one instance serves every
    // stretch (hoisted out of the former per-stretch construction).
    const ScenarioSampler sampler(config_.rates);
    auto partials = exec::parallel_chunks<IncidentLog>(
        jobs, stretches, [&](const exec::ChunkRange& chunk) {
            IncidentLog part;
            StretchScratch scratch;
            for (std::size_t h = chunk.begin; h < chunk.end; ++h) {
                const double stretch =
                    h < static_cast<std::size_t>(whole_hours) ? 1.0 : remainder;
                run_stretch(h, stretch, environments[h], sampler, scratch, part);
            }
            return part;
        });

    IncidentLog log;
    for (auto& part : partials) log.merge(std::move(part));
    log.exposure = ExposureHours(hours);
    if (obs::enabled()) {
        // Pure sums of schedule-independent quantities: the totals are
        // bit-identical for every jobs value, whichever thread adds them.
        obs::add_counter("sim.fleet_runs", 1);
        obs::add_counter("sim.stretches", stretches);
        obs::add_counter("sim.encounters", log.encounters);
        obs::add_counter("sim.incidents", log.incidents.size());
        obs::add_counter("sim.emergency_brakings", log.emergency_brakings);
    }
    return log;
}

// Flattened: every call below, and every call those make, is inlined into
// this one body where its definition is visible (DESIGN.md, "Kernel
// layout"). Without it GCC 12 at -O3 keeps resolve_lead_braking out of
// line, one call per lead-braking and cut-in encounter.
[[gnu::flatten]] void FleetSimulator::run_stretch(std::size_t index, double stretch,
                                                  Environment env,
                                                  const ScenarioSampler& sampler,
                                                  StretchScratch& scratch,
                                                  IncidentLog& log) const {
    stats::Rng rng = stats::Rng::stream(config_.seed, static_cast<std::uint64_t>(index) + 1);
    // Stretches are one hour each except possibly the last, so stretch h
    // starts at clock hour h.
    const double clock_hours = static_cast<double>(index);

    {
        // ODD exit: conditions may leave the declared domain mid-stretch.
        // Detected -> minimal risk manoeuvre (the stretch ends early, with a
        // small chance of a low-speed rear-end during the stop). Missed ->
        // the vehicle keeps operating outside its ODD in degraded
        // conditions for the remainder of the stretch.
        if (rng.bernoulli(config_.odd_exit.exit_probability)) {
            ++log.odd_exits;
            if (rng.bernoulli(config_.odd_exit.detection_probability)) {
                ++log.mrm_executions;
                if (rng.bernoulli(config_.odd_exit.mrm_incident_probability)) {
                    Incident mrm_rear_end;
                    mrm_rear_end.first = ActorType::EgoVehicle;
                    mrm_rear_end.second = ActorType::Car;
                    mrm_rear_end.mechanism = IncidentMechanism::Collision;
                    mrm_rear_end.relative_speed_kmh = rng.uniform(2.0, 15.0);
                    mrm_rear_end.timestamp_hours = clock_hours + rng.uniform() * stretch;
                    validate(mrm_rear_end);
                    log.incidents.push_back(mrm_rear_end);
                }
                // The vehicle is parked for the rest of the stretch; exposure
                // still counts (the feature was engaged when the stretch began).
                return;
            }
            ++log.unmonitored_exits;
            // Out-of-ODD conditions: the weather the ODD excluded, with the
            // matching friction and perception degradation.
            env.weather = config_.odd.allow_snow ? Weather::Fog : Weather::Snow;
            env.friction = std::min(env.friction, 0.3);
        }
        double cruise_kmh = config_.policy.cruise_speed_kmh(env, config_.odd);

        // Fault injection: this stretch may run with degraded brakes. The
        // physical cap always applies; only an aware policy adapts to it.
        const bool degraded =
            rng.bernoulli(config_.faults.brake_degradation_probability);
        const double decel_cap =
            degraded ? config_.faults.degraded_decel_cap_ms2
                     : std::numeric_limits<double>::infinity();
        const bool adapt = degraded && config_.faults.policy_aware;
        double gap_stretch = 1.0;
        if (degraded) ++log.degraded_hours;
        if (adapt) {
            // Aware adaptation (Sec. II-B(3)): preserve the *healthy*
            // emergency stopping envelope. Reduce speed until the degraded
            // capability stops within the distance the healthy capability
            // would have needed from the nominal cruise speed, and stretch
            // following gaps by the lost braking authority.
            const double healthy_max = config_.policy.emergency_decel_fraction *
                                       friction_limited_decel_ms2(env.friction);
            if (decel_cap < healthy_max) {
                const double v0 = kmh_to_ms(cruise_kmh);
                const double healthy_stop =
                    v0 * terms_.latency_s +
                    v0 * v0 / (2.0 * healthy_max);
                cruise_kmh = std::min(
                    cruise_kmh,
                    config_.policy.speed_for_stop_within(healthy_stop, decel_cap, terms_));
                gap_stretch = healthy_max / decel_cap;
            }
        }

        // All seven Poisson counts in one batched draw (sequence-identical
        // to per-kind sample_count calls), into the chunk-owned scratch.
        sampler.sample_counts(env, stretch, rng, scratch.encounter_counts);

        // The campaign inner loop: nothing here, nor in what it calls, may
        // allocate per encounter (alloc_tests counts operator new calls).
        for (std::size_t kind_index = 0; kind_index < kEncounterKindCount; ++kind_index) {
            const EncounterKind kind = encounter_kind_from_index(kind_index);
            const std::uint64_t count = scratch.encounter_counts[kind_index];
            for (std::uint64_t i = 0; i < count; ++i) {
                // Draw-order contract: resolve_encounter consumes exactly the
                // draws the former inline switch did (pinned by the fleet
                // determinism tests), so stretch streams replay bit-identically.
                const ResolvedEncounter resolved =
                    resolve_encounter(kind, env, cruise_kmh, decel_cap, gap_stretch,
                                      config_.policy, terms_, config_.perception, sampler,
                                      rng);
                ++log.encounters;
                const double timestamp = clock_hours + rng.uniform() * stretch;
                if (auto incident = detect_incident(resolved.encounter, resolved.outcome,
                                                    timestamp, config_.detector)) {
                    log.incidents.push_back(*incident);
                }

                if (!resolved.emergency) continue;
                ++log.emergency_brakings;
                // Secondary conflicts: ego's hard braking endangers traffic
                // behind it (Fig. 4 lower half: ego as a causing factor).
                if (!rng.bernoulli(config_.secondary.follower_presence)) continue;
                if (rng.bernoulli(config_.secondary.rear_end_probability)) {
                    // Follower rear-ends ego: an ego-involved Car collision
                    // at a modest closing speed.
                    Incident rear_end;
                    rear_end.first = ActorType::EgoVehicle;
                    rear_end.second = ActorType::Car;
                    rear_end.mechanism = IncidentMechanism::Collision;
                    rear_end.relative_speed_kmh = rng.uniform(2.0, 25.0);
                    rear_end.timestamp_hours = timestamp;
                    validate(rear_end);
                    log.incidents.push_back(rear_end);
                } else if (rng.bernoulli(config_.secondary.induced_probability)) {
                    // Follower swerves and hits a third party: an induced
                    // incident where ego is only the causing factor.
                    Incident induced;
                    induced.first = ActorType::Car;
                    induced.second = rng.bernoulli(0.15) ? ActorType::Vru : ActorType::Car;
                    induced.mechanism = IncidentMechanism::Collision;
                    induced.relative_speed_kmh = rng.uniform(5.0, 50.0);
                    induced.ego_causing_factor = true;
                    induced.timestamp_hours = timestamp;
                    validate(induced);
                    log.incidents.push_back(induced);
                }
            }
        }
    }
}

}  // namespace qrn::sim
