// Incident types and type sets: matching, MECE-by-construction guards,
// and the one-pass per-type count behind every evidence scan.
#include "qrn/incident_type.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace qrn {
namespace {

Incident make(ActorType other, IncidentMechanism mech, double dv, double dist = 0.0) {
    Incident i;
    i.second = other;
    i.mechanism = mech;
    i.relative_speed_kmh = dv;
    i.min_distance_m = dist;
    return i;
}

TEST(IncidentType, MatchesCounterpartyAndMargin) {
    const IncidentType t("I2", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0));
    EXPECT_TRUE(t.matches(make(ActorType::Vru, IncidentMechanism::Collision, 5.0)));
    EXPECT_FALSE(t.matches(make(ActorType::Car, IncidentMechanism::Collision, 5.0)));
    EXPECT_FALSE(t.matches(make(ActorType::Vru, IncidentMechanism::Collision, 15.0)));
    EXPECT_FALSE(
        t.matches(make(ActorType::Vru, IncidentMechanism::NearMiss, 15.0, 0.5)));
}

TEST(IncidentType, MatchesWhenEgoIsSecondParty) {
    const IncidentType t("I2", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0));
    Incident i = make(ActorType::Vru, IncidentMechanism::Collision, 5.0);
    std::swap(i.first, i.second);  // VRU first, ego second
    EXPECT_TRUE(t.matches(i));
}

TEST(IncidentType, IgnoresInducedIncidents) {
    const IncidentType t("I2", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0));
    Incident induced;
    induced.first = ActorType::Car;
    induced.second = ActorType::Vru;
    induced.relative_speed_kmh = 5.0;
    induced.ego_causing_factor = true;
    EXPECT_FALSE(t.matches(induced));
}

TEST(IncidentType, ConstructionDomain) {
    EXPECT_THROW(
        IncidentType("", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0)),
        std::invalid_argument);
    EXPECT_THROW(IncidentType("I1", ActorType::EgoVehicle,
                              ToleranceMargin::impact_speed(0.0, 10.0)),
                 std::invalid_argument);
}

TEST(IncidentType, InteractionText) {
    const IncidentType t("I2", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0));
    EXPECT_EQ(t.interaction_text(), "Ego<->VRU, 0 < dv <= 10 km/h");
}

TEST(IncidentTypeSet, PaperVruExample) {
    const auto set = IncidentTypeSet::paper_vru_example();
    ASSERT_EQ(set.size(), 3u);
    EXPECT_EQ(set.at(0).id(), "I1");
    EXPECT_EQ(set.at(2).id(), "I3");
    EXPECT_EQ(set.at(2).margin().impact_band().upper_kmh, 70.0);
    EXPECT_EQ(set.index_of("I2"), 1u);
    EXPECT_FALSE(set.index_of("I9").has_value());
}

TEST(IncidentTypeSet, ClassifyRoutesToUniqueType) {
    const auto set = IncidentTypeSet::paper_vru_example();
    const auto i2 = make(ActorType::Vru, IncidentMechanism::Collision, 7.0);
    const auto i3 = make(ActorType::Vru, IncidentMechanism::Collision, 30.0);
    const auto i1 = make(ActorType::Vru, IncidentMechanism::NearMiss, 15.0, 0.5);
    EXPECT_EQ(set.classify(i2), 1u);
    EXPECT_EQ(set.classify(i3), 2u);
    EXPECT_EQ(set.classify(i1), 0u);
    EXPECT_EQ(set.match_count(i2), 1u);
    // A collision above 70 km/h matches none of the example types.
    EXPECT_FALSE(
        set.classify(make(ActorType::Vru, IncidentMechanism::Collision, 80.0)).has_value());
}

TEST(IncidentTypeSet, RejectsDuplicateIds) {
    EXPECT_THROW(
        IncidentTypeSet({
            IncidentType("I1", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0)),
            IncidentType("I1", ActorType::Car, ToleranceMargin::impact_speed(0.0, 10.0)),
        }),
        std::invalid_argument);
}

TEST(IncidentTypeSet, RejectsOverlappingMarginsForSameCounterparty) {
    EXPECT_THROW(
        IncidentTypeSet({
            IncidentType("A", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 20.0)),
            IncidentType("B", ActorType::Vru, ToleranceMargin::impact_speed(10.0, 70.0)),
        }),
        std::invalid_argument);
}

TEST(IncidentTypeSet, AllowsSameMarginForDifferentCounterparties) {
    EXPECT_NO_THROW(IncidentTypeSet({
        IncidentType("A", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 20.0)),
        IncidentType("B", ActorType::Car, ToleranceMargin::impact_speed(0.0, 20.0)),
    }));
}

TEST(InducedIncidentType, MatchesOnlyInducedIncidentsOfItsPair) {
    const auto t = IncidentType::induced(
        "J1", ActorType::Car, ActorType::Vru, ToleranceMargin::impact_speed(0.0, 70.0));
    EXPECT_TRUE(t.is_induced());
    Incident induced;
    induced.first = ActorType::Car;
    induced.second = ActorType::Vru;
    induced.relative_speed_kmh = 30.0;
    induced.ego_causing_factor = true;
    EXPECT_TRUE(t.matches(induced));
    // Pair order is irrelevant.
    std::swap(induced.first, induced.second);
    EXPECT_TRUE(t.matches(induced));
    // Wrong pair.
    induced.second = ActorType::Truck;
    EXPECT_FALSE(t.matches(induced));
    // Ego-involved incidents never match an induced type.
    EXPECT_FALSE(t.matches(make(ActorType::Vru, IncidentMechanism::Collision, 30.0)));
    // Outside the margin.
    induced.first = ActorType::Car;
    induced.second = ActorType::Vru;
    induced.relative_speed_kmh = 90.0;
    EXPECT_FALSE(t.matches(induced));
}

TEST(InducedIncidentType, RejectsEgoAsParty) {
    EXPECT_THROW(IncidentType::induced("J", ActorType::EgoVehicle, ActorType::Car,
                                       ToleranceMargin::impact_speed(0.0, 10.0)),
                 std::invalid_argument);
}

TEST(InducedIncidentType, InteractionTextAndGoalRendering) {
    const auto t = IncidentType::induced(
        "J1", ActorType::Car, ActorType::Vru, ToleranceMargin::impact_speed(0.0, 70.0));
    EXPECT_EQ(t.interaction_text(), "Car<->VRU (induced), 0 < dv <= 70 km/h");
}

TEST(InducedIncidentType, CoexistsWithEgoTypesOfSameActors) {
    // Same margin, same counterparty, different scope: no double counting,
    // so the set accepts both.
    EXPECT_NO_THROW(IncidentTypeSet({
        IncidentType("I", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 70.0)),
        IncidentType::induced("J", ActorType::Car, ActorType::Vru,
                              ToleranceMargin::impact_speed(0.0, 70.0)),
    }));
    // Two induced types over the same unordered pair must stay disjoint.
    EXPECT_THROW(IncidentTypeSet({
                     IncidentType::induced("J1", ActorType::Car, ActorType::Vru,
                                           ToleranceMargin::impact_speed(0.0, 70.0)),
                     IncidentType::induced("J2", ActorType::Vru, ActorType::Car,
                                           ToleranceMargin::impact_speed(30.0, 90.0)),
                 }),
                 std::invalid_argument);
}

TEST(IncidentTypeSet, RejectsEmpty) {
    EXPECT_THROW(IncidentTypeSet({}), std::invalid_argument);
}

/// A deterministic mixed bag of incidents: every actor pairing, both
/// mechanisms, induced and ego-involved rows.
std::vector<Incident> sample_rows(std::uint64_t seed, std::size_t n) {
    std::vector<Incident> rows;
    rows.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        stats::Rng rng = stats::Rng::stream(seed, i);
        Incident incident;
        incident.second = actor_type_from_index(
            static_cast<std::size_t>(rng.uniform_int(1, kActorTypeCount - 1)));
        if (rng.bernoulli(0.4)) {
            incident.mechanism = IncidentMechanism::NearMiss;
            incident.min_distance_m = rng.uniform(0.0, 5.0);
        }
        if (rng.bernoulli(0.2)) {
            incident.first = ActorType::Car;
            incident.ego_causing_factor = true;
        }
        incident.relative_speed_kmh = rng.uniform(0.0, 150.0);
        incident.timestamp_hours = rng.uniform(0.0, 1e4);
        rows.push_back(incident);
    }
    return rows;
}

TEST(CountMatchingAll, AgreesWithPerTypeReference) {
    const auto types = IncidentTypeSet::paper_vru_example();
    // Force plenty of VRU rows so every type accumulates real counts.
    auto rows = sample_rows(18, 2000);
    for (std::size_t i = 0; i < rows.size(); i += 2) {
        rows[i].second = ActorType::Vru;
    }

    const auto counts = count_matching_all(rows, types);
    ASSERT_EQ(counts.size(), types.size());
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < types.size(); ++k) {
        // Reference: the naive one-type-at-a-time scan over the rows.
        const std::uint64_t expected = static_cast<std::uint64_t>(
            std::count_if(rows.begin(), rows.end(), [&](const Incident& r) {
                return types.at(k).matches(r);
            }));
        EXPECT_EQ(counts[k], expected) << "type " << types.at(k).id();
        total += counts[k];
    }
    EXPECT_GT(total, 0u);
}

TEST(CountMatchingAll, EmptyColumnsYieldZeroes) {
    const auto counts = count_matching_all({}, IncidentTypeSet::paper_vru_example());
    ASSERT_EQ(counts.size(), 3u);
    for (const std::uint64_t c : counts) EXPECT_EQ(c, 0u);
}

}  // namespace
}  // namespace qrn
