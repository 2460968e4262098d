// The risk norm: limits, monotonicity, scaling and domain totals.
#include "qrn/risk_norm.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn {
namespace {

TEST(RiskNorm, PaperExampleLimits) {
    const auto norm = RiskNorm::paper_example();
    EXPECT_EQ(norm.size(), 6u);
    EXPECT_DOUBLE_EQ(norm.limit_by_id("vQ1").per_hour_value(), 1e-3);
    EXPECT_DOUBLE_EQ(norm.limit_by_id("vS3").per_hour_value(), 1e-8);
    EXPECT_DOUBLE_EQ(norm.limit(0).per_hour_value(), 1e-3);
}

TEST(RiskNorm, LimitsNonIncreasingWithSeverity) {
    const auto norm = RiskNorm::paper_example();
    for (std::size_t j = 1; j < norm.size(); ++j) {
        EXPECT_LE(norm.limit(j), norm.limit(j - 1));
    }
}

TEST(RiskNorm, RejectsIncreasingLimits) {
    EXPECT_THROW(RiskNorm(ConsequenceClassSet({
                              {"v1", "a", ConsequenceDomain::Safety, 1, ""},
                              {"v2", "b", ConsequenceDomain::Safety, 2, ""},
                          }),
                          {Frequency::per_hour(1e-8), Frequency::per_hour(1e-7)}),
                 std::invalid_argument);
}

TEST(RiskNorm, RejectsZeroLimitAndShapeMismatch) {
    const ConsequenceClassSet classes({{"v1", "a", ConsequenceDomain::Safety, 1, ""}});
    EXPECT_THROW(RiskNorm(classes, {Frequency::per_hour(0.0)}), std::invalid_argument);
    EXPECT_THROW(RiskNorm(classes, {}), std::invalid_argument);
    EXPECT_THROW(RiskNorm(classes,
                          {Frequency::per_hour(1e-7), Frequency::per_hour(1e-8)}),
                 std::invalid_argument);
}

TEST(RiskNorm, EntryAccess) {
    const auto norm = RiskNorm::paper_example();
    const auto entry = norm.entry(3);
    EXPECT_EQ(entry.consequence_class.id, "vS1");
    EXPECT_DOUBLE_EQ(entry.limit.per_hour_value(), 1e-6);
    EXPECT_THROW(norm.entry(6), std::out_of_range);
    EXPECT_THROW(norm.limit(6), std::out_of_range);
    EXPECT_THROW(norm.limit_by_id("bogus"), std::out_of_range);
}

TEST(RiskNorm, ScaledLimitPreservesOthers) {
    const auto norm = RiskNorm::paper_example();
    const auto scaled = norm.with_scaled_limit("vS1", 0.5);
    EXPECT_DOUBLE_EQ(scaled.limit_by_id("vS1").per_hour_value(), 5e-7);
    EXPECT_DOUBLE_EQ(scaled.limit_by_id("vS2").per_hour_value(), 1e-7);
    EXPECT_THROW(norm.with_scaled_limit("vS1", 0.0), std::invalid_argument);
    EXPECT_THROW(norm.with_scaled_limit("bogus", 0.5), std::out_of_range);
}

TEST(RiskNorm, ScalingCannotBreakMonotonicity) {
    const auto norm = RiskNorm::paper_example();
    // Scaling vS2 above vS1's limit must be rejected by the constructor.
    EXPECT_THROW(norm.with_scaled_limit("vS2", 100.0), std::invalid_argument);
}

}  // namespace
}  // namespace qrn
