// Failure-rate algebra: series/parallel/k-of-n combinators and the unified
// cause budget.
#include "quant/failure_rate.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn::quant {
namespace {

TEST(ParallelRate, ProductWithWindow) {
    // Two 1e-3 channels with a 1 h window: 2 * 1e-3 * 1e-3 * 1 = 2e-6.
    const auto r = parallel_rate(Frequency::per_hour(1e-3), Frequency::per_hour(1e-3), 1.0);
    EXPECT_NEAR(r.per_hour_value(), 2e-6, 1e-15);
    EXPECT_THROW(parallel_rate(Frequency::per_hour(1e-3), Frequency::per_hour(1e-3), 0.0),
                 std::invalid_argument);
}

TEST(ParallelRate, RedundancyBeatsSingleChannel) {
    const auto single = Frequency::per_hour(1e-4);
    const auto pair = parallel_rate(single, single, 1.0);
    EXPECT_LT(pair, single);
}

TEST(KofN, NOfNIsSeries) {
    const auto r = k_of_n_rate(3, 3, Frequency::per_hour(1e-6), 1.0);
    EXPECT_NEAR(r.per_hour_value(), 3e-6, 1e-18);
}

TEST(KofN, OneOfTwoMatchesParallel) {
    const auto l = Frequency::per_hour(1e-3);
    const auto kofn = k_of_n_rate(1, 2, l, 1.0);
    const auto par = parallel_rate(l, l, 1.0);
    EXPECT_NEAR(kofn.per_hour_value(), par.per_hour_value(), 1e-15);
}

TEST(KofN, OneOfThreeScalesCubically) {
    const auto l = Frequency::per_hour(1e-3);
    const auto r = k_of_n_rate(1, 3, l, 1.0);
    // m = 3 failed channels needed: 3 * C(3,3) * l * (l*tau)^2 = 3e-9.
    EXPECT_NEAR(r.per_hour_value(), 3e-9, 1e-18);
}

TEST(KofN, TwoOfThreeIsFirstOrderPair) {
    const auto l = Frequency::per_hour(1e-3);
    const auto r = k_of_n_rate(2, 3, l, 1.0);
    // m = 2: 2 * C(3,2) * l * (l*tau)^1 = 6e-6.
    EXPECT_NEAR(r.per_hour_value(), 6e-6, 1e-15);
}

TEST(KofN, Domain) {
    const auto l = Frequency::per_hour(1e-3);
    EXPECT_THROW(k_of_n_rate(0, 3, l, 1.0), std::invalid_argument);
    EXPECT_THROW(k_of_n_rate(4, 3, l, 1.0), std::invalid_argument);
    EXPECT_THROW(k_of_n_rate(1, 3, l, 0.0), std::invalid_argument);
    EXPECT_THROW(k_of_n_rate(1, 30, l, 1.0), std::invalid_argument);
}

TEST(CauseCategory, Naming) {
    EXPECT_EQ(to_string(CauseCategory::SystematicDesign), "systematic");
    EXPECT_EQ(to_string(CauseCategory::RandomHardware), "random-hw");
    EXPECT_EQ(to_string(CauseCategory::PerformanceLimitation), "performance");
}

}  // namespace
}  // namespace qrn::quant
