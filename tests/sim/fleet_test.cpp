// Fleet simulation: determinism, exposure accounting, policy dependence of
// incident rates (the paper's exposure-is-a-design-choice claim), fault
// injection, and evidence extraction.
#include "sim/fleet.h"

#include <algorithm>
#include <stdexcept>

#include <gtest/gtest.h>

#include "qrn/classification.h"

namespace qrn::sim {
namespace {

/// Reference count for one type: a plain scan, independent of the
/// one-pass count_matching_all behind evidence_for.
std::uint64_t reference_count(const IncidentLog& log, const IncidentType& type) {
    return static_cast<std::uint64_t>(
        std::count_if(log.incidents.begin(), log.incidents.end(),
                      [&type](const Incident& incident) { return type.matches(incident); }));
}

FleetConfig urban_config(std::uint64_t seed = 42) {
    FleetConfig config;
    config.odd = Odd::urban();
    config.policy = TacticalPolicy::nominal();
    config.seed = seed;
    return config;
}

TEST(Fleet, DeterministicForSameSeed) {
    const FleetSimulator sim(urban_config(7));
    const auto a = sim.run(200.0);
    const auto b = sim.run(200.0);
    ASSERT_EQ(a.incidents.size(), b.incidents.size());
    ASSERT_EQ(a.encounters, b.encounters);
    for (std::size_t i = 0; i < a.incidents.size(); ++i) {
        EXPECT_EQ(describe(a.incidents[i]), describe(b.incidents[i]));
    }
}

TEST(Fleet, DifferentSeedsDiffer) {
    const auto a = FleetSimulator(urban_config(1)).run(300.0);
    const auto b = FleetSimulator(urban_config(2)).run(300.0);
    EXPECT_NE(a.encounters, b.encounters);
}

TEST(Fleet, ExposureMatchesRequestedHours) {
    const auto log = FleetSimulator(urban_config()).run(123.5);
    EXPECT_DOUBLE_EQ(log.exposure.hours(), 123.5);
}

TEST(Fleet, EncountersScaleWithHours) {
    const auto short_run = FleetSimulator(urban_config(3)).run(50.0);
    const auto long_run = FleetSimulator(urban_config(3)).run(500.0);
    EXPECT_GT(long_run.encounters, short_run.encounters * 5);
}

TEST(Fleet, AllLoggedIncidentsAreValidAndStamped) {
    const auto log = FleetSimulator(urban_config()).run(500.0);
    for (const auto& incident : log.incidents) {
        EXPECT_NO_THROW(validate(incident));
        EXPECT_LE(incident.timestamp_hours, 500.0);
    }
}

TEST(Fleet, CautiousPolicyProducesFewerIncidentsThanPerformance) {
    // The paper's central Sec. II-B argument made executable.
    auto cautious_cfg = urban_config(11);
    cautious_cfg.policy = TacticalPolicy::cautious();
    auto performance_cfg = urban_config(11);
    performance_cfg.policy = TacticalPolicy::performance();
    const auto cautious = FleetSimulator(cautious_cfg).run(3000.0);
    const auto performance = FleetSimulator(performance_cfg).run(3000.0);
    EXPECT_LT(cautious.incidents.size(), performance.incidents.size());
}

TEST(Fleet, CautiousPolicyNeedsFewerEmergencyBrakings) {
    auto cautious_cfg = urban_config(13);
    cautious_cfg.policy = TacticalPolicy::cautious();
    auto performance_cfg = urban_config(13);
    performance_cfg.policy = TacticalPolicy::performance();
    const auto cautious = FleetSimulator(cautious_cfg).run(1000.0);
    const auto performance = FleetSimulator(performance_cfg).run(1000.0);
    // Exposure to the hard-braking "situation" depends on the design.
    EXPECT_LT(static_cast<double>(cautious.emergency_brakings) /
                  static_cast<double>(cautious.encounters),
              static_cast<double>(performance.emergency_brakings) /
                  static_cast<double>(performance.encounters));
}

TEST(Fleet, PerceptionBlackoutIncreasesIncidents) {
    auto healthy_cfg = urban_config(17);
    auto faulty_cfg = urban_config(17);
    faulty_cfg.perception.blackout_probability = 0.2;
    const auto healthy = FleetSimulator(healthy_cfg).run(2000.0);
    const auto faulty = FleetSimulator(faulty_cfg).run(2000.0);
    EXPECT_GT(faulty.incidents.size(), healthy.incidents.size());
}

TEST(Fleet, EvidenceForPaperTypesCoversMatchingIncidents) {
    const auto log = FleetSimulator(urban_config(19)).run(2000.0);
    const auto types = IncidentTypeSet::paper_vru_example();
    const auto evidence = log.evidence_for(types);
    ASSERT_EQ(evidence.size(), 3u);
    for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(evidence[k].incident_type_id, types.at(k).id());
        EXPECT_DOUBLE_EQ(evidence[k].exposure.hours(), 2000.0);
        EXPECT_EQ(evidence[k].events, reference_count(log, types.at(k)));
    }
}

TEST(Fleet, EvidenceForZeroIncidentsStillReportsExposure) {
    // A quiet fleet is evidence, not absence of evidence: "0 events over H
    // hours" is exactly what drives the rule-of-three upper bounds. The
    // streaming store aggregation reproduces this shape from an empty shard
    // (tests/store/aggregate_test.cpp).
    IncidentLog log;
    log.exposure = ExposureHours(250.0);
    const auto types = IncidentTypeSet::paper_vru_example();
    const auto evidence = log.evidence_for(types);
    ASSERT_EQ(evidence.size(), 3u);
    for (const auto& e : evidence) {
        EXPECT_EQ(e.events, 0u);
        EXPECT_DOUBLE_EQ(e.exposure.hours(), 250.0);
    }
    EXPECT_DOUBLE_EQ(log.incident_rate().per_hour_value(), 0.0);
}

TEST(Fleet, EvidenceForConcentratesWhenAllIncidentsShareOneType) {
    IncidentLog log;
    for (int i = 0; i < 25; ++i) {
        Incident incident;
        incident.second = ActorType::Vru;
        incident.relative_speed_kmh = 5.0;  // inside the I2 impact-speed band
        incident.timestamp_hours = static_cast<double>(i);
        log.incidents.push_back(incident);
    }
    log.exposure = ExposureHours(100.0);
    const auto types = IncidentTypeSet::paper_vru_example();
    const auto evidence = log.evidence_for(types);
    ASSERT_EQ(evidence.size(), 3u);
    std::uint64_t total = 0;
    std::size_t nonzero_types = 0;
    for (std::size_t k = 0; k < evidence.size(); ++k) {
        EXPECT_EQ(evidence[k].events, reference_count(log, types.at(k)));
        total += evidence[k].events;
        if (evidence[k].events > 0) ++nonzero_types;
    }
    EXPECT_EQ(total, 25u);
    EXPECT_EQ(nonzero_types, 1u);
}

TEST(Fleet, IncidentRateIsCountOverExposure) {
    const auto log = FleetSimulator(urban_config(23)).run(1000.0);
    EXPECT_DOUBLE_EQ(log.incident_rate().per_hour_value(),
                     static_cast<double>(log.incidents.size()) / 1000.0);
}

TEST(Fleet, UnawareBrakeDegradationIncreasesIncidents) {
    // The paper's 4 m/s^2 brake-degradation example: a policy that does not
    // know its braking capability shrank suffers.
    auto healthy_cfg = urban_config(37);
    auto degraded_cfg = urban_config(37);
    degraded_cfg.faults.brake_degradation_probability = 1.0;
    degraded_cfg.faults.degraded_decel_cap_ms2 = 3.5;
    degraded_cfg.faults.policy_aware = false;
    const auto healthy = FleetSimulator(healthy_cfg).run(2000.0);
    const auto degraded = FleetSimulator(degraded_cfg).run(2000.0);
    EXPECT_GT(degraded.incidents.size(), healthy.incidents.size() * 3 / 2);
    EXPECT_EQ(degraded.degraded_hours, 2000u);
    EXPECT_EQ(healthy.degraded_hours, 0u);
}

TEST(Fleet, AwareAdaptationAbsorbsBrakeDegradation) {
    // "As long as the tactical decisions know about the current actual
    // braking capability, it should be possible to safely adjust the
    // driving style accordingly" (Sec. II-B(3)).
    auto unaware_cfg = urban_config(41);
    unaware_cfg.faults.brake_degradation_probability = 1.0;
    unaware_cfg.faults.degraded_decel_cap_ms2 = 3.5;
    unaware_cfg.faults.policy_aware = false;
    auto aware_cfg = unaware_cfg;
    aware_cfg.faults.policy_aware = true;
    const auto unaware = FleetSimulator(unaware_cfg).run(2000.0);
    const auto aware = FleetSimulator(aware_cfg).run(2000.0);
    EXPECT_LT(aware.incidents.size(), unaware.incidents.size());
}

TEST(Fleet, PartialDegradationProbabilityCountsStretches) {
    auto config = urban_config(43);
    config.faults.brake_degradation_probability = 0.25;
    const auto log = FleetSimulator(config).run(4000.0);
    // Binomial(4000, 0.25): ~1000 +- a few sigma.
    EXPECT_GT(log.degraded_hours, 850u);
    EXPECT_LT(log.degraded_hours, 1150u);
}

TEST(Fleet, SecondaryConflictsProduceInducedIncidents) {
    auto config = urban_config(47);
    config.policy = TacticalPolicy::performance();  // plenty of hard braking
    config.secondary.follower_presence = 1.0;
    config.secondary.rear_end_probability = 0.05;
    config.secondary.induced_probability = 0.2;
    const auto log = FleetSimulator(config).run(3000.0);
    EXPECT_GT(log.induced_count(), 0u);
    // Induced incidents are valid records with ego as causing factor only.
    for (const auto& incident : log.incidents) {
        if (incident.ego_causing_factor) {
            EXPECT_FALSE(incident.involves_ego());
            EXPECT_NO_THROW(validate(incident));
        }
    }
    // Rear-end records appear as ego-involved Car collisions.
    std::uint64_t rear_ends = 0;
    for (const auto& incident : log.incidents) {
        if (incident.involves_ego() && incident.second == ActorType::Car &&
            incident.mechanism == IncidentMechanism::Collision) {
            ++rear_ends;
        }
    }
    EXPECT_GT(rear_ends, 0u);
}

TEST(Fleet, SecondaryConflictsDisabledByZeroPresence) {
    auto config = urban_config(53);
    config.secondary.follower_presence = 0.0;
    const auto log = FleetSimulator(config).run(1000.0);
    EXPECT_EQ(log.induced_count(), 0u);
}

TEST(Fleet, InducedIncidentsClassifyIntoFig4LowerHalf) {
    auto config = urban_config(59);
    config.secondary.follower_presence = 1.0;
    config.secondary.induced_probability = 0.5;
    const auto log = FleetSimulator(config).run(2000.0);
    const auto tree = qrn::ClassificationTree::paper_example();
    bool saw_lower_half = false;
    for (const auto& incident : log.incidents) {
        const auto path = tree.classify(incident);
        if (incident.ego_causing_factor) {
            saw_lower_half = true;
            EXPECT_EQ(path.path.front(),
                      "Ego vehicle a causing factor in an incident involving other "
                      "road users");
        }
    }
    EXPECT_TRUE(saw_lower_half);
}

TEST(Fleet, OddExitsAreCountedAndSplitByDetection) {
    auto config = urban_config(61);
    config.odd_exit.exit_probability = 0.2;
    config.odd_exit.detection_probability = 0.5;
    const auto log = FleetSimulator(config).run(5000.0);
    // ~1000 exits split roughly evenly between MRM and unmonitored.
    EXPECT_GT(log.odd_exits, 800u);
    EXPECT_LT(log.odd_exits, 1200u);
    EXPECT_EQ(log.odd_exits, log.mrm_executions + log.unmonitored_exits);
    EXPECT_GT(log.mrm_executions, 300u);
    EXPECT_GT(log.unmonitored_exits, 300u);
}

TEST(Fleet, MissedOddExitsIncreaseIncidents) {
    // The value of the ODD monitor: with detection the vehicle stops; a
    // blind monitor leaves it driving on snow/ice outside its domain.
    auto monitored = urban_config(67);
    monitored.odd_exit.exit_probability = 0.3;
    monitored.odd_exit.detection_probability = 1.0;
    auto blind = urban_config(67);
    blind.odd_exit.exit_probability = 0.3;
    blind.odd_exit.detection_probability = 0.0;
    const auto with_monitor = FleetSimulator(monitored).run(3000.0);
    const auto without_monitor = FleetSimulator(blind).run(3000.0);
    EXPECT_LT(with_monitor.incidents.size(), without_monitor.incidents.size());
    EXPECT_EQ(with_monitor.unmonitored_exits, 0u);
    EXPECT_EQ(without_monitor.mrm_executions, 0u);
}

TEST(Fleet, MrmCarriesItsOwnSmallRisk) {
    auto config = urban_config(71);
    config.odd_exit.exit_probability = 1.0;  // every stretch exits
    config.odd_exit.detection_probability = 1.0;
    config.odd_exit.mrm_incident_probability = 0.1;
    const auto log = FleetSimulator(config).run(2000.0);
    EXPECT_EQ(log.mrm_executions, 2000u);
    // All incidents stem from MRMs (the vehicle never drives a full
    // stretch); expect ~200 low-speed rear-ends.
    EXPECT_GT(log.incidents.size(), 120u);
    EXPECT_LT(log.incidents.size(), 280u);
    for (const auto& incident : log.incidents) {
        EXPECT_EQ(incident.second, ActorType::Car);
        EXPECT_LE(incident.relative_speed_kmh, 15.0);
    }
}

TEST(Fleet, OddExitDisabledByDefault) {
    const auto log = FleetSimulator(urban_config(73)).run(500.0);
    EXPECT_EQ(log.odd_exits, 0u);
    EXPECT_EQ(log.mrm_executions, 0u);
    EXPECT_EQ(log.unmonitored_exits, 0u);
}

TEST(Fleet, InvalidHoursRejected) {
    const FleetSimulator sim(urban_config());
    EXPECT_THROW((void)sim.run(0.0), std::invalid_argument);
    EXPECT_THROW((void)sim.run(-5.0), std::invalid_argument);
}

TEST(Fleet, InvalidPolicyRejectedAtConstruction) {
    auto config = urban_config();
    config.policy.speed_factor = 2.0;
    EXPECT_THROW(FleetSimulator{config}, std::invalid_argument);
}

}  // namespace
}  // namespace qrn::sim
