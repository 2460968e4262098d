// Streaming summary: Welford mean/variance and extremes.
#include "stats/running_summary.h"

#include <gtest/gtest.h>

namespace qrn::stats {
namespace {

TEST(RunningSummary, WelfordMatchesDirectComputation) {
    RunningSummary s;
    const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    for (double x : xs) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance of the classic dataset: 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningSummary, DegenerateCases) {
    RunningSummary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

}  // namespace
}  // namespace qrn::stats
