// Pins the simulator's output on every branch of the encounter kernel.
//
// Each case runs a grid of fleets (every policy preset in the urban and
// the highway ODD) under one fault setting: healthy, degraded brakes with
// an aware and with an unaware policy, ODD exits that end in an MRM or go
// unmonitored, and a perception blackout. A last case runs a splitting
// campaign over FleetSeverityModel. Every field of the output is folded
// into an FNV-1a digest that must equal a literal, so a change that moves
// one draw or one floating-point operation anywhere in the kernel fails
// here, at every `jobs` value.
//
// Fields are folded one by one, never as raw rows: an Incident holds 4
// padding bytes whose contents are unspecified, and a digest over them
// differed between jobs 1 and jobs 4 for identical logs.
#include <bit>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fleet.h"
#include "sim/splitting.h"

namespace qrn::sim {
namespace {

class Digest {
public:
    void word(std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            state_ ^= (value >> (8 * byte)) & 0xFFu;
            state_ *= 0x100000001B3ULL;
        }
    }
    void real(double value) { word(std::bit_cast<std::uint64_t>(value)); }
    [[nodiscard]] std::uint64_t value() const { return state_; }

private:
    std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

void fold(Digest& digest, const IncidentLog& log) {
    digest.word(log.incidents.size());
    for (const Incident& incident : log.incidents) {
        digest.word(static_cast<std::uint64_t>(incident.first));
        digest.word(static_cast<std::uint64_t>(incident.second));
        digest.word(static_cast<std::uint64_t>(incident.mechanism));
        digest.word(incident.ego_causing_factor ? 1 : 0);
        digest.real(incident.relative_speed_kmh);
        digest.real(incident.min_distance_m);
        digest.real(incident.timestamp_hours);
    }
    digest.real(log.exposure.hours());
    digest.word(log.encounters);
    digest.word(log.emergency_brakings);
    digest.word(log.degraded_hours);
    digest.word(log.odd_exits);
    digest.word(log.mrm_executions);
    digest.word(log.unmonitored_exits);
}

void fold(Digest& digest, const SplittingResult& result) {
    const stats::SplittingEstimate& estimate = result.estimate;
    digest.word(estimate.levels.size());
    for (const stats::LevelEstimate& level : estimate.levels) {
        digest.real(level.threshold);
        digest.word(level.trials);
        digest.word(level.successes);
        digest.word(level.effective_trials);
        digest.word(level.effective_successes);
        digest.real(level.conditional);
        digest.real(level.lower);
        digest.real(level.upper);
    }
    digest.real(estimate.point);
    digest.real(estimate.lower);
    digest.real(estimate.upper);
    digest.real(estimate.confidence);
    digest.real(result.hours_per_trial);
    digest.word(result.total_trials);
    digest.word(result.replayed_episodes);
    digest.word(result.fresh_episodes);
}

std::string hex(std::uint64_t value) {
    std::ostringstream out;
    out << "0x" << std::hex << std::uppercase << value;
    return out.str();
}

/// The fleets of one case: three policies times two ODDs, each with its
/// own seed, run for a whole and a partial stretch count.
std::vector<FleetConfig> grid(void (*fault)(FleetConfig&)) {
    std::vector<FleetConfig> fleets;
    std::uint64_t seed = 101;
    for (const TacticalPolicy& policy : {TacticalPolicy::cautious(), TacticalPolicy::nominal(),
                                         TacticalPolicy::performance()}) {
        for (const Odd& odd : {Odd::urban(), Odd::highway()}) {
            FleetConfig config;
            config.policy = policy;
            config.odd = odd;
            config.seed = seed++;
            fault(config);
            fleets.push_back(config);
        }
    }
    return fleets;
}

constexpr double kHours = 250.5;

struct Case {
    const char* name;
    void (*fault)(FleetConfig&);
    /// Counters the grid must raise, so that the digest pins the branch.
    std::vector<std::uint64_t IncidentLog::*> reached;
    std::uint64_t digest;
};

TEST(KernelDigest, FleetGridMatchesPinnedDigests) {
    const Case cases[] = {
        {"healthy", [](FleetConfig&) {}, {}, 0xD8C28B16442F2657ULL},
        {"aware degraded brakes",
         [](FleetConfig& c) {
             c.faults.brake_degradation_probability = 0.4;
             c.faults.policy_aware = true;
         },
         {&IncidentLog::degraded_hours},
         0x4ED1649C850CCA64ULL},
        {"unaware degraded brakes",
         [](FleetConfig& c) {
             c.faults.brake_degradation_probability = 0.4;
             c.faults.policy_aware = false;
         },
         {&IncidentLog::degraded_hours},
         0x930EE81A13D341C0ULL},
        {"odd exits",
         [](FleetConfig& c) {
             c.odd_exit.exit_probability = 0.3;
             c.odd_exit.detection_probability = 0.6;
             c.odd_exit.mrm_incident_probability = 0.2;
         },
         {&IncidentLog::mrm_executions, &IncidentLog::unmonitored_exits},
         0xFD0F1FC78A3DD227ULL},
        {"perception blackout",
         [](FleetConfig& c) { c.perception.blackout_probability = 0.02; },
         {},
         0x683B800DFCBA5ECAULL},
    };
    for (const Case& pinned : cases) {
        SCOPED_TRACE(pinned.name);
        IncidentLog totals;
        for (const unsigned jobs : {1u, 4u}) {
            Digest digest;
            totals = IncidentLog{};
            for (const FleetConfig& config : grid(pinned.fault)) {
                IncidentLog log = FleetSimulator(config).run(kHours, jobs);
                fold(digest, log);
                totals.merge(std::move(log));
            }
            EXPECT_EQ(hex(digest.value()), hex(pinned.digest)) << "jobs " << jobs;
        }
        // A digest pins only the branches its fleets reach.
        EXPECT_GT(totals.incidents.size(), 0u);
        EXPECT_GT(totals.emergency_brakings, 0u);
        for (const auto counter : pinned.reached) EXPECT_GT(totals.*counter, 0u);
    }
}

TEST(KernelDigest, SplittingOverFleetModelMatchesPinnedDigest) {
    std::vector<FleetSeverityModel> models;
    for (const auto& [policy, odd] : {std::pair{TacticalPolicy::performance(), Odd::urban()},
                                      std::pair{TacticalPolicy::cautious(), Odd::highway()}}) {
        FleetConfig fleet;
        fleet.policy = policy;
        fleet.odd = odd;
        fleet.seed = 31;
        models.emplace_back(fleet);
    }
    SplittingConfig config;
    config.levels = {40.0, 120.0, 210.0};
    config.trials_per_level = 300;
    config.seed = 31;
    for (const unsigned jobs : {1u, 4u}) {
        Digest digest;
        for (const FleetSeverityModel& model : models) {
            const SplittingResult result = run_splitting(model, config, jobs);
            fold(digest, result);
            EXPECT_GT(result.estimate.levels.front().successes, 0u);
        }
        EXPECT_EQ(hex(digest.value()), hex(0x3580FF740FFE1658ULL)) << "jobs " << jobs;
    }
}

}  // namespace
}  // namespace qrn::sim
