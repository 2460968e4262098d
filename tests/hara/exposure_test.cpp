// Empirical exposure ratings: banding, environment mapping, and the
// ODD-restriction effect on E ratings (Sec. II-B(2)/(4)).
#include "hara/exposure.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qrn::hara {
namespace {

/// The value label a situation selects in each catalog dimension.
std::vector<std::string> labels(const SituationCatalog& catalog,
                                const OperationalSituation& situation) {
    std::vector<std::string> out;
    for (std::size_t d = 0; d < situation.value_indices.size(); ++d) {
        out.push_back(catalog.dimensions().at(d).values.at(situation.value_indices[d]));
    }
    return out;
}

TEST(ExposureRating, DurationBands) {
    EXPECT_EQ(exposure_rating_for_share(0.5), Exposure::E4);
    EXPECT_EQ(exposure_rating_for_share(0.10), Exposure::E4);
    EXPECT_EQ(exposure_rating_for_share(0.05), Exposure::E3);
    EXPECT_EQ(exposure_rating_for_share(0.005), Exposure::E2);
    EXPECT_EQ(exposure_rating_for_share(0.0005), Exposure::E1);
    EXPECT_EQ(exposure_rating_for_share(0.0), Exposure::E0);
}

TEST(MapEnvironment, MapsEachDimension) {
    const auto catalog = SituationCatalog::ads_example();
    sim::Environment env;
    env.speed_limit_kmh = 45.0;
    env.weather = sim::Weather::Rain;
    env.lighting = sim::Lighting::Night;
    env.traffic_density = 1.0;
    env.friction = 0.6;
    env.vru_density = 3.0;
    const auto situation = map_environment(env, catalog);
    EXPECT_EQ(labels(catalog, situation),
              (std::vector<std::string>{"urban", "30-50", "rain", "night", "medium", "wet",
                                        "VRU nearby"}));
}

TEST(MapEnvironment, HighwayAndIceCorners) {
    const auto catalog = SituationCatalog::ads_example();
    sim::Environment env;
    env.speed_limit_kmh = 120.0;
    env.weather = sim::Weather::Snow;
    env.friction = 0.2;
    env.animal_density = 2.0;
    const auto situation = map_environment(env, catalog);
    EXPECT_EQ(labels(catalog, situation),
              (std::vector<std::string>{"highway", "110-130", "snow", "day", "medium", "icy",
                                        "animal risk"}));
}

TEST(MapEnvironment, RejectsForeignCatalog) {
    const SituationCatalog other({{"road", {"a", "b"}}});
    EXPECT_THROW(map_environment(sim::Environment{}, other), std::invalid_argument);
}

TEST(EstimateExposure, SharesSumToOneAndRatingsConsistent) {
    const auto catalog = SituationCatalog::ads_example();
    const auto estimate = estimate_exposure(catalog, sim::Odd::urban(), 20000, 7);
    EXPECT_FALSE(estimate.empty());
    double total = 0.0;
    for (const auto& e : estimate) {
        total += e.share;
        EXPECT_EQ(e.rating, exposure_rating_for_share(e.share));
        EXPECT_GT(e.samples, 0u);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(EstimateExposure, Deterministic) {
    const auto catalog = SituationCatalog::ads_example();
    const auto a = estimate_exposure(catalog, sim::Odd::urban(), 5000, 9);
    const auto b = estimate_exposure(catalog, sim::Odd::urban(), 5000, 9);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].situation_index, b[i].situation_index);
        EXPECT_EQ(a[i].samples, b[i].samples);
    }
}

TEST(EstimateExposure, OddRestrictionZeroesSnowExposure) {
    // The executable Sec. II-B(2) point: E ratings are not "given input" -
    // they move with the ODD (a design choice).
    const auto catalog = SituationCatalog::ads_example();
    sim::Odd with_snow = sim::Odd::urban();
    with_snow.allow_snow = true;
    with_snow.min_friction = 0.1;
    sim::Odd no_snow = sim::Odd::urban();
    no_snow.allow_snow = false;

    const auto snowy = estimate_exposure(catalog, with_snow, 30000, 11);
    const auto dry = estimate_exposure(catalog, no_snow, 30000, 11);

    const auto snow_share = [&](const std::vector<SituationExposure>& estimate) {
        double share = 0.0;
        for (const auto& e : estimate) {
            const auto situation = catalog.at(e.situation_index);
            if (catalog.dimensions()[2].values[situation.value_indices[2]] == "snow") {
                share += e.share;
            }
        }
        return share;
    };
    EXPECT_GT(snow_share(snowy), 0.01);
    EXPECT_DOUBLE_EQ(snow_share(dry), 0.0);
}

TEST(EstimateExposure, BenignSituationsDominate) {
    const auto catalog = SituationCatalog::ads_example();
    const auto estimate = estimate_exposure(catalog, sim::Odd::urban(), 30000, 13);
    // At least one situation must be common enough for an E3+ rating.
    bool has_common = false;
    for (const auto& e : estimate) {
        has_common = has_common || static_cast<int>(e.rating) >= 3;
    }
    EXPECT_TRUE(has_common);
}

TEST(RatingOf, AbsentSituationsAreE0) {
    const auto catalog = SituationCatalog::ads_example();
    const auto estimate = estimate_exposure(catalog, sim::Odd::urban(), 1000, 17);
    // Find an index not present in the estimate (snow is outside urban ODD).
    sim::Environment snowy_env;
    snowy_env.weather = sim::Weather::Snow;
    snowy_env.speed_limit_kmh = 45.0;
    const auto situation = map_environment(snowy_env, catalog);
    std::uint64_t index = 0;
    for (std::size_t d = 0; d < situation.value_indices.size(); ++d) {
        index = index * catalog.dimensions()[d].values.size() +
                situation.value_indices[d];
    }
    EXPECT_TRUE(std::none_of(estimate.begin(), estimate.end(),
                             [&](const SituationExposure& e) {
                                 return e.situation_index == index;
                             }));
    EXPECT_THROW(estimate_exposure(catalog, sim::Odd::urban(), 0, 1),
                 std::invalid_argument);
}

}  // namespace
}  // namespace qrn::hara
