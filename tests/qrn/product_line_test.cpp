// Product-line variability under one shared norm.
#include "qrn/product_line.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn {
namespace {

ProductLine make_line() {
    auto norm = RiskNorm::paper_example();
    auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel injury;
    auto matrix = ContributionMatrix::from_injury_model(norm, types, injury, {0.6, 0.4});
    return ProductLine(std::move(norm), std::move(types), std::move(matrix));
}

TEST(ProductLine, VariantsAllocateAgainstTheSharedNorm) {
    auto line = make_line();
    line.add_variant("shuttle", {8.0, 1.0, 0.2});
    line.add_variant("taxi", {2.0, 1.0, 1.0});
    EXPECT_EQ(line.size(), 2u);
    // Allocations differ but both are norm-satisfying by construction.
    EXPECT_NE(line.variant("shuttle").budgets[0].per_hour_value(),
              line.variant("taxi").budgets[0].per_hour_value());
}

TEST(ProductLine, DuplicateAndUnknownNames) {
    auto line = make_line();
    line.add_variant("a", {1.0, 1.0, 1.0});
    EXPECT_THROW(line.add_variant("a", {2.0, 1.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(line.variant("nope"), std::out_of_range);
}

TEST(ProductLine, BudgetSpreadQuantifiesVariability) {
    auto line = make_line();
    line.add_variant("shuttle", {8.0, 1.0, 1.0});
    line.add_variant("taxi", {1.0, 1.0, 1.0});
    const auto spread = line.budget_spread();
    ASSERT_EQ(spread.size(), 3u);
    EXPECT_EQ(spread[0].incident_type_id, "I1");
    // The I1 weights differ 8:1 across variants; the spread must show it.
    EXPECT_GT(spread[0].ratio, 1.5);
    for (const auto& s : spread) {
        EXPECT_LE(s.min_budget, s.max_budget);
        EXPECT_GE(s.ratio, 1.0);
    }
}

TEST(ProductLine, BudgetSpreadNeedsVariants) {
    const auto line = make_line();
    EXPECT_THROW(line.budget_spread(), std::logic_error);
}

}  // namespace
}  // namespace qrn
