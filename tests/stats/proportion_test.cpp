// Clopper-Pearson proportion interval: reference values, range, and a
// coverage sweep.
#include "stats/proportion.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace qrn::stats {
namespace {

TEST(ClopperPearson, KnownValue) {
    // 8/10 at 95%: CP = (0.4439, 0.9748).
    const auto ci = clopper_pearson_interval(8, 10, 0.95);
    EXPECT_NEAR(ci.lower, 0.4439, 5e-4);
    EXPECT_NEAR(ci.upper, 0.9748, 5e-4);
}

TEST(ClopperPearson, ExtremesAreExact) {
    const auto zero = clopper_pearson_interval(0, 20, 0.95);
    EXPECT_DOUBLE_EQ(zero.lower, 0.0);
    // Upper for k=0: 1 - (alpha/2)^(1/n).
    EXPECT_NEAR(zero.upper, 1.0 - std::pow(0.025, 1.0 / 20.0), 1e-9);
    const auto all = clopper_pearson_interval(20, 20, 0.95);
    EXPECT_DOUBLE_EQ(all.upper, 1.0);
}

TEST(Proportion, IntervalsStayInsideUnitRange) {
    for (std::uint64_t k : {0ULL, 1ULL, 5ULL, 10ULL}) {
        const auto ci = clopper_pearson_interval(k, 10, 0.99);
        EXPECT_GE(ci.lower, 0.0);
        EXPECT_LE(ci.upper, 1.0);
        EXPECT_LE(ci.lower, ci.upper);
    }
}

// Pins the full precondition matrix (zero trials, successes > trials,
// confidence outside (0, 1)) the CLI contracts rely on.
TEST(Proportion, PreconditionsPinnedForCliContract) {
    EXPECT_THROW(clopper_pearson_interval(0, 0, 0.95), std::invalid_argument);
    EXPECT_THROW(clopper_pearson_interval(5, 4, 0.95), std::invalid_argument);
    EXPECT_THROW(clopper_pearson_interval(1, 10, 0.0), std::invalid_argument);
    EXPECT_THROW(clopper_pearson_interval(1, 10, 1.0), std::invalid_argument);
    EXPECT_THROW(clopper_pearson_interval(1, 10, -0.2), std::invalid_argument);
    EXPECT_THROW(clopper_pearson_interval(1, 10, 1.2), std::invalid_argument);
}

/// Clopper-Pearson is conservative by construction: empirical coverage must
/// be at or above the nominal level for every true p.
class CpCoverage : public ::testing::TestWithParam<double> {};

TEST_P(CpCoverage, AtLeastNominal) {
    const double p = GetParam();
    Rng rng(0xBEEF ^ static_cast<std::uint64_t>(p * 1e9));
    const int trials = 2000;
    const std::uint64_t n = 40;
    int covered = 0;
    for (int t = 0; t < trials; ++t) {
        std::uint64_t k = 0;
        for (std::uint64_t i = 0; i < n; ++i) k += rng.bernoulli(p);
        const auto ci = clopper_pearson_interval(k, n, 0.90);
        if (ci.lower <= p && p <= ci.upper) ++covered;
    }
    EXPECT_GE(covered / static_cast<double>(trials), 0.885) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(PSweep, CpCoverage,
                         ::testing::Values(0.02, 0.1, 0.3, 0.5, 0.7, 0.95));

}  // namespace
}  // namespace qrn::stats
