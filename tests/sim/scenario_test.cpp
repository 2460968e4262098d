// Scenario sampler: rates, parameter ranges, environment containment.
#include "sim/scenario.h"

#include <array>
#include <cstdint>
#include <stdexcept>

#include "sim/dynamics.h"

#include <gtest/gtest.h>

namespace qrn::sim {
namespace {

Environment busy_urban() {
    Environment env;
    env.vru_density = 3.0;
    env.traffic_density = 1.5;
    env.animal_density = 0.2;
    return env;
}

TEST(EncounterRates, ScaleWithDensities) {
    const EncounterRates rates;
    auto env = busy_urban();
    EXPECT_DOUBLE_EQ(rates.rate_of(EncounterKind::VruCrossing, env), 2.0 * 3.0);
    EXPECT_DOUBLE_EQ(rates.rate_of(EncounterKind::LeadVehicleBraking, env), 4.0 * 1.5);
    EXPECT_DOUBLE_EQ(rates.rate_of(EncounterKind::AnimalCrossing, env), 0.2 * 0.2);
    EXPECT_DOUBLE_EQ(rates.rate_of(EncounterKind::StationaryObstacle, env), 0.5);
    env.vru_density = 0.0;
    EXPECT_DOUBLE_EQ(rates.rate_of(EncounterKind::VruCrossing, env), 0.0);
}

TEST(ScenarioSampler, CountsFollowPoissonMean) {
    const ScenarioSampler sampler{EncounterRates{}};
    stats::Rng rng(3);
    const auto env = busy_urban();
    double total = 0.0;
    const int trials = 5000;
    for (int i = 0; i < trials; ++i) {
        total += static_cast<double>(
            sampler.sample_count(EncounterKind::VruCrossing, env, 1.0, rng));
    }
    EXPECT_NEAR(total / trials, 6.0, 0.2);
    EXPECT_THROW(sampler.sample_count(EncounterKind::VruCrossing, env, -1.0, rng),
                 std::invalid_argument);
}

TEST(ScenarioSampler, SampleCountsMatchesPerKindDraws) {
    // The batched per-stretch primitive the fleet hot path uses: one
    // fill_poisson over all seven kinds, drawn in kind-index order. Pin it
    // against the scalar sample_count sequence so the batching can never
    // silently change what a stretch samples.
    const ScenarioSampler sampler{EncounterRates{}};
    const auto env = busy_urban();
    const double hours = 0.25;
    stats::Rng batched(41);
    std::array<std::uint64_t, kEncounterKindCount> counts{};
    sampler.sample_counts(env, hours, batched, counts);
    stats::Rng sequential(41);
    for (std::size_t k = 0; k < kEncounterKindCount; ++k) {
        EXPECT_EQ(counts[k],
                  sampler.sample_count(encounter_kind_from_index(k), env, hours,
                                       sequential))
            << "kind " << k;
    }
    // Same generator state afterwards: downstream draws stay aligned.
    EXPECT_EQ(batched.uniform(), sequential.uniform());

    EXPECT_THROW(sampler.sample_counts(env, -1.0, batched, counts),
                 std::invalid_argument);
}

TEST(ScenarioSampler, ParameterRangesPerKind) {
    const ScenarioSampler sampler{EncounterRates{}};
    stats::Rng rng(4);
    const auto env = busy_urban();
    for (int i = 0; i < 2000; ++i) {
        const auto vru = sampler.sample(EncounterKind::VruCrossing, env, rng);
        ASSERT_GE(vru.conflict_distance_m, 3.0);
        ASSERT_LT(vru.conflict_distance_m, 80.0);
        ASSERT_GE(vru.crossing_speed_kmh, 2.0);
        ASSERT_LT(vru.crossing_speed_kmh, 14.0);
        const auto lead = sampler.sample(EncounterKind::LeadVehicleBraking, env, rng);
        ASSERT_GE(lead.lead_decel_ms2, 3.0);
        ASSERT_LE(lead.lead_decel_ms2, friction_limited_decel_ms2(env.friction));
        const auto cut = sampler.sample(EncounterKind::CutIn, env, rng);
        ASSERT_GE(cut.cut_in_gap_m, 4.0);
        ASSERT_LT(cut.cut_in_gap_m, 25.0);
    }
}

TEST(EncounterKind, CounterpartyMapping) {
    EXPECT_EQ(counterparty_of(EncounterKind::VruCrossing), ActorType::Vru);
    EXPECT_EQ(counterparty_of(EncounterKind::LeadVehicleBraking), ActorType::Car);
    EXPECT_EQ(counterparty_of(EncounterKind::StationaryObstacle), ActorType::StaticObject);
    EXPECT_EQ(counterparty_of(EncounterKind::AnimalCrossing), ActorType::Animal);
    EXPECT_EQ(counterparty_of(EncounterKind::CutIn), ActorType::Car);
    EXPECT_EQ(counterparty_of(EncounterKind::CrossingVehicle), ActorType::Car);
    EXPECT_EQ(counterparty_of(EncounterKind::OncomingDrift), ActorType::Car);
}

TEST(ScenarioSampler, VehicleConflictParameterRanges) {
    const ScenarioSampler sampler{EncounterRates{}};
    stats::Rng rng(8);
    const auto env = busy_urban();
    for (int i = 0; i < 2000; ++i) {
        const auto crossing = sampler.sample(EncounterKind::CrossingVehicle, env, rng);
        ASSERT_GE(crossing.conflict_distance_m, 8.0);
        ASSERT_LT(crossing.conflict_distance_m, 120.0);
        ASSERT_GE(crossing.crossing_speed_kmh, 20.0);
        ASSERT_LT(crossing.crossing_speed_kmh, 60.0);
        const auto drift = sampler.sample(EncounterKind::OncomingDrift, env, rng);
        ASSERT_GE(drift.conflict_distance_m, 20.0);
        ASSERT_LT(drift.conflict_distance_m, 150.0);
        ASSERT_GE(drift.crossing_speed_kmh, 2.0);
        ASSERT_LT(drift.crossing_speed_kmh, 8.0);
    }
}

TEST(EncounterRates, VehicleConflictsScaleWithTraffic) {
    const EncounterRates rates;
    auto env = busy_urban();  // traffic_density = 1.5
    EXPECT_DOUBLE_EQ(rates.rate_of(EncounterKind::CrossingVehicle, env), 0.8 * 1.5);
    EXPECT_DOUBLE_EQ(rates.rate_of(EncounterKind::OncomingDrift, env), 0.1 * 1.5);
}

TEST(EncounterKind, Indexing) {
    for (std::size_t i = 0; i < kEncounterKindCount; ++i) {
        EXPECT_NO_THROW(encounter_kind_from_index(i));
    }
    EXPECT_THROW(encounter_kind_from_index(kEncounterKindCount), std::out_of_range);
}

TEST(SampleEnvironment, AlwaysInsideOdd) {
    stats::Rng rng(5);
    const auto odd = Odd::urban();
    for (int i = 0; i < 5000; ++i) {
        const auto env = sample_environment(odd, rng);
        EXPECT_TRUE(odd.contains(env)) << "weather=" << static_cast<int>(env.weather)
                                       << " limit=" << env.speed_limit_kmh;
    }
}

TEST(SampleEnvironment, RestrictiveOddFallsBackToBenignCorner) {
    Odd strict = Odd::urban();
    strict.allow_rain = false;
    strict.allow_night = false;
    strict.min_friction = 0.85;
    strict.max_vru_density = 0.01;
    stats::Rng rng(6);
    for (int i = 0; i < 200; ++i) {
        const auto env = sample_environment(strict, rng);
        EXPECT_TRUE(strict.contains(env));
    }
}

TEST(EnvironmentProcess, StaysInsideOddAndPersists) {
    stats::Rng rng(21);
    const auto odd = Odd::urban();
    EnvironmentProcess process(odd, 0.9);
    int weather_changes = 0;
    Weather previous = Weather::Clear;
    for (int i = 0; i < 4000; ++i) {
        const auto env = process.next(rng);
        ASSERT_TRUE(odd.contains(env));
        if (i > 0 && env.weather != previous) ++weather_changes;
        previous = env.weather;
    }
    // With 0.9 persistence, regime changes happen in roughly 10% of the
    // steps, and only a share of redraws change the weather - far fewer
    // changes than the ~30% an iid sampler produces.
    EXPECT_LT(weather_changes, 400);
    EXPECT_GT(weather_changes, 20);  // but the process does mix
}

TEST(EnvironmentProcess, ZeroPersistenceMatchesIidSampling) {
    stats::Rng a(33), b(33);
    EnvironmentProcess process(Odd::urban(), 0.0);
    for (int i = 0; i < 50; ++i) {
        const auto from_process = process.next(a);
        const auto iid = sample_environment(Odd::urban(), b);
        EXPECT_EQ(from_process.weather, iid.weather);
        EXPECT_DOUBLE_EQ(from_process.friction, iid.friction);
    }
}

TEST(EnvironmentProcess, RejectsBadPersistence) {
    EXPECT_THROW(EnvironmentProcess(Odd::urban(), 1.0), std::invalid_argument);
    EXPECT_THROW(EnvironmentProcess(Odd::urban(), -0.1), std::invalid_argument);
}

TEST(SampleEnvironment, HighwayOddSeesLowVruDensity) {
    stats::Rng rng(7);
    const auto odd = Odd::highway();
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LE(sample_environment(odd, rng).vru_density, odd.max_vru_density);
    }
}

}  // namespace
}  // namespace qrn::sim
