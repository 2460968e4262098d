// Tests for the multilevel splitting estimator: product composition,
// Bonferroni-split Clopper-Pearson bounds, degenerate stages, and the
// probability-to-rate bridge.
#include "stats/splitting.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "stats/proportion.h"
#include "stats/rng.h"

namespace qrn::stats {
namespace {

TEST(SplittingEstimate, SingleLevelMatchesClopperPearson) {
    const SplittingEstimate est =
        splitting_estimate({{1000, 137}}, {2.5}, 0.95);
    const ProportionInterval cp = clopper_pearson_interval(137, 1000, 0.95);
    EXPECT_DOUBLE_EQ(est.point, 0.137);
    EXPECT_DOUBLE_EQ(est.lower, cp.lower);
    EXPECT_DOUBLE_EQ(est.upper, cp.upper);
    ASSERT_EQ(est.levels.size(), 1u);
    EXPECT_DOUBLE_EQ(est.levels[0].threshold, 2.5);
    EXPECT_EQ(est.levels[0].trials, 1000u);
    EXPECT_EQ(est.levels[0].successes, 137u);
}

TEST(SplittingEstimate, ProductComposition) {
    // Three levels with conditional probabilities 0.5, 0.2, 0.1.
    const SplittingEstimate est = splitting_estimate(
        {{1000, 500}, {1000, 200}, {1000, 100}}, {1.0, 2.0, 3.0}, 0.95);
    EXPECT_NEAR(est.point, 0.5 * 0.2 * 0.1, 1e-15);
    // Each level at Bonferroni-split confidence 1 - 0.05/3.
    const double split_conf = 1.0 - 0.05 / 3.0;
    double lower = 1.0, upper = 1.0;
    for (const auto& [k, n] :
         {std::pair{500u, 1000u}, {200u, 1000u}, {100u, 1000u}}) {
        const ProportionInterval ci = clopper_pearson_interval(k, n, split_conf);
        lower *= ci.lower;
        upper *= ci.upper;
    }
    EXPECT_DOUBLE_EQ(est.lower, lower);
    EXPECT_DOUBLE_EQ(est.upper, upper);
    EXPECT_LT(est.lower, est.point);
    EXPECT_GT(est.upper, est.point);
}

TEST(SplittingEstimate, ZeroSuccessesGivesZeroPointPositiveUpper) {
    const SplittingEstimate est =
        splitting_estimate({{500, 250}, {500, 0}}, {1.0, 2.0}, 0.99);
    EXPECT_DOUBLE_EQ(est.point, 0.0);
    EXPECT_DOUBLE_EQ(est.lower, 0.0);
    EXPECT_GT(est.upper, 0.0);
    EXPECT_LT(est.upper, 1.0);
}

TEST(SplittingEstimate, UntriedStageContributesVacuousBounds) {
    // Stage 2 never ran (stage 1 had no survivors): its factor must be
    // [0, 1] so only the upper bound composition stays honest.
    const SplittingEstimate est =
        splitting_estimate({{500, 0}, {0, 0}}, {1.0, 2.0}, 0.95);
    EXPECT_DOUBLE_EQ(est.point, 0.0);
    EXPECT_DOUBLE_EQ(est.lower, 0.0);
    ASSERT_EQ(est.levels.size(), 2u);
    EXPECT_DOUBLE_EQ(est.levels[1].lower, 0.0);
    EXPECT_DOUBLE_EQ(est.levels[1].upper, 1.0);
    // Upper equals stage 1's upper alone (stage 2 multiplies by 1).
    const double split_conf = 1.0 - 0.05 / 2.0;
    EXPECT_DOUBLE_EQ(est.upper,
                     clopper_pearson_interval(0, 500, split_conf).upper);
}

TEST(SplittingEstimate, Domain) {
    EXPECT_THROW(splitting_estimate({}, {}, 0.95), std::invalid_argument);
    EXPECT_THROW(splitting_estimate({{10, 1}}, {1.0, 2.0}, 0.95),
                 std::invalid_argument);
    EXPECT_THROW(splitting_estimate({{10, 11}}, {1.0}, 0.95),
                 std::invalid_argument);
    EXPECT_THROW(splitting_estimate({{10, 1}}, {1.0}, 0.0), std::invalid_argument);
    EXPECT_THROW(splitting_estimate({{10, 1}}, {1.0}, 1.0), std::invalid_argument);
}

TEST(SplittingRateInterval, DividesThroughByExposure) {
    const SplittingEstimate est = splitting_estimate(
        {{1000, 500}, {1000, 200}}, {1.0, 2.0}, 0.95);
    const RateInterval rate = splitting_rate_interval(est, 1.0);
    EXPECT_DOUBLE_EQ(rate.point, est.point);
    EXPECT_DOUBLE_EQ(rate.upper, est.upper);
    const RateInterval rate2 = splitting_rate_interval(est, 4.0);
    EXPECT_DOUBLE_EQ(rate2.point, est.point / 4.0);
    EXPECT_DOUBLE_EQ(rate2.lower, est.lower / 4.0);
    EXPECT_DOUBLE_EQ(rate2.upper, est.upper / 4.0);
    EXPECT_DOUBLE_EQ(rate2.confidence, 0.95);
    EXPECT_THROW(splitting_rate_interval(est, 0.0), std::invalid_argument);
}

// The Bonferroni composition must be conservative: simulate many splitting
// campaigns on a known two-level Bernoulli cascade and check empirical
// coverage of the true product probability meets the nominal level. This
// is a deterministic test (fixed seed) of a statistical property with
// comfortable slack.
TEST(SplittingEstimate, CompositionIsConservative) {
    // True conditionals 0.3 and 0.2 -> product 0.06.
    const double p1 = 0.3, p2 = 0.2, truth = p1 * p2;
    const double confidence = 0.9;
    constexpr int kReps = 400;
    constexpr std::uint64_t kTrials = 200;
    Rng rng(0xC0FFEEu);
    int covered = 0;
    for (int r = 0; r < kReps; ++r) {
        LevelTally t1, t2;
        t1.trials = kTrials;
        for (std::uint64_t i = 0; i < kTrials; ++i) {
            t1.successes += rng.bernoulli(p1) ? 1 : 0;
        }
        t2.trials = kTrials;
        for (std::uint64_t i = 0; i < kTrials; ++i) {
            t2.successes += rng.bernoulli(p2) ? 1 : 0;
        }
        const SplittingEstimate est =
            splitting_estimate({t1, t2}, {1.0, 2.0}, confidence);
        if (est.lower <= truth && truth <= est.upper) ++covered;
    }
    // Nominal coverage 0.9 and the composition over-covers; 400 reps put
    // the empirical rate well above 0.85 with probability ~1.
    EXPECT_GE(static_cast<double>(covered) / kReps, 0.85);
}

}  // namespace
}  // namespace qrn::stats
