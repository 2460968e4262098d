// Exact Poisson rate bounds: reference values, the rule of three, and a
// Monte-Carlo coverage property for the one-sided Garwood upper bound.
#include "stats/rate_estimation.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace qrn::stats {
namespace {

TEST(RateMle, BasicAndDomain) {
    EXPECT_DOUBLE_EQ(rate_mle({10, 100.0}), 0.1);
    EXPECT_DOUBLE_EQ(rate_mle({0, 50.0}), 0.0);
    EXPECT_THROW(rate_mle({1, 0.0}), std::invalid_argument);
}

TEST(Garwood, ZeroEventsMatchesRuleOfThree) {
    // One-sided 95% upper bound: -ln(0.05)/T ~ 3.0/T (the rule of three).
    EXPECT_NEAR(rate_upper_bound({0, 1000.0}, 0.95), -std::log(0.05) / 1000.0, 1e-9);
}

TEST(Garwood, KnownValues) {
    // k=5, T=100h: the 97.5% upper bound is chi2(.975, 12)/2 / 100
    // = 11.66833 / 100.
    EXPECT_NEAR(rate_upper_bound({5, 100.0}, 0.975), 11.66833 / 100.0, 1e-4);
}

TEST(Garwood, IntervalContainsPointEstimate) {
    for (std::uint64_t k : {0ULL, 1ULL, 3ULL, 17ULL, 120ULL}) {
        const RateObservation obs{k, 250.0};
        EXPECT_GE(rate_upper_bound(obs, 0.9), rate_mle(obs));
    }
}

TEST(Bounds, OneSidedOrdering) {
    const RateObservation obs{7, 500.0};
    EXPECT_GT(rate_upper_bound(obs, 0.95), rate_mle(obs));
    // Higher confidence widens the one-sided bound.
    EXPECT_GT(rate_upper_bound(obs, 0.99), rate_upper_bound(obs, 0.9));
}

TEST(Bounds, Domain) {
    EXPECT_THROW(rate_upper_bound({1, 10.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(rate_upper_bound({1, 10.0}, 1.0), std::invalid_argument);
    EXPECT_THROW(rate_upper_bound({1, -1.0}, 0.9), std::invalid_argument);
}

// Pins the precondition contract the CLI's checked-parsing layer relies
// on: zero/negative exposure and confidence outside (0, 1) must throw for
// every estimator, never return a number.
TEST(Bounds, PreconditionsPinnedForCliContract) {
    EXPECT_THROW(rate_upper_bound({0, 0.0}, 0.95), std::invalid_argument);
    EXPECT_THROW(rate_upper_bound({1, 10.0}, -0.5), std::invalid_argument);
    EXPECT_THROW(rate_upper_bound({1, 10.0}, 1.5), std::invalid_argument);
    EXPECT_THROW(rate_mle({0, -1.0}), std::invalid_argument);
    EXPECT_THROW(exposure_needed_for_zero_events(-1e-7, 0.95),
                 std::invalid_argument);
    EXPECT_THROW(exposure_needed_for_zero_events(1e-7, 0.0),
                 std::invalid_argument);
    EXPECT_THROW(exposure_needed_for_zero_events(1e-7, 1.0),
                 std::invalid_argument);
}

TEST(ExposureNeeded, InvertsRuleOfThree) {
    const double t = exposure_needed_for_zero_events(1e-7, 0.95);
    // Observing 0 events over t hours must bound the rate at exactly 1e-7.
    EXPECT_NEAR(rate_upper_bound({0, t}, 0.95), 1e-7, 1e-15);
    EXPECT_THROW(exposure_needed_for_zero_events(0.0, 0.95), std::invalid_argument);
}

TEST(HeterogeneityTest, HomogeneousSamplesYieldHighPValues) {
    Rng rng(0x1234);
    int rejections = 0;
    const int trials = 1000;
    for (int t = 0; t < trials; ++t) {
        std::vector<RateObservation> fleets;
        for (int f = 0; f < 6; ++f) {
            fleets.push_back({rng.poisson(40.0), 800.0});  // common rate 0.05
        }
        if (rate_heterogeneity_test(fleets).p_value < 0.05) ++rejections;
    }
    EXPECT_LT(rejections / static_cast<double>(trials), 0.08);
}

TEST(HeterogeneityTest, MixedRatesAreDetected) {
    // Five fleets at rate 0.05 and one at 0.25: clear overdispersion.
    std::vector<RateObservation> fleets(5, RateObservation{40, 800.0});
    fleets.push_back({200, 800.0});
    const auto result = rate_heterogeneity_test(fleets);
    EXPECT_LT(result.p_value, 1e-6);
    EXPECT_GT(result.chi_squared, 50.0);
    EXPECT_DOUBLE_EQ(result.degrees_of_freedom, 5.0);
}

TEST(HeterogeneityTest, PooledRateAndEdgeCases) {
    const std::vector<RateObservation> fleets{{10, 100.0}, {20, 300.0}};
    const auto result = rate_heterogeneity_test(fleets);
    EXPECT_NEAR(result.pooled_rate, 30.0 / 400.0, 1e-12);
    const std::vector<RateObservation> empty_counts{{0, 100.0}, {0, 100.0}};
    EXPECT_DOUBLE_EQ(rate_heterogeneity_test(empty_counts).p_value, 1.0);
    EXPECT_THROW(rate_heterogeneity_test({{1, 10.0}}), std::invalid_argument);
    EXPECT_THROW(rate_heterogeneity_test({{1, 10.0}, {1, 0.0}}), std::invalid_argument);
}

/// Coverage property: the 95% one-sided upper bound behind every Eq. 1
/// verdict must lie at or above the true rate in at least ~95% of simulated
/// experiments (it is conservative, so >= 95% minus Monte-Carlo noise).
class GarwoodCoverage : public ::testing::TestWithParam<double> {};

TEST_P(GarwoodCoverage, CoversTrueRate) {
    const double true_rate = GetParam();
    const double exposure = 400.0;
    Rng rng(0xC0FFEE ^ static_cast<std::uint64_t>(true_rate * 1e6));
    int covered = 0;
    const int trials = 3000;
    for (int i = 0; i < trials; ++i) {
        const std::uint64_t k = rng.poisson(true_rate * exposure);
        if (true_rate <= rate_upper_bound({k, exposure}, 0.95)) ++covered;
    }
    EXPECT_GE(covered / static_cast<double>(trials), 0.93)
        << "true rate " << true_rate;
}

INSTANTIATE_TEST_SUITE_P(RateSweep, GarwoodCoverage,
                         ::testing::Values(0.002, 0.01, 0.05, 0.25, 1.0));

}  // namespace
}  // namespace qrn::stats
