// Chain-template refinement: budget apportionment, redundancy credit and
// closure of the derived FSC.
#include "fsc/refinement.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn::fsc {
namespace {

SafetyGoalSet paper_goals() {
    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel injury;
    const auto matrix =
        ContributionMatrix::from_injury_model(norm, types, injury, {0.6, 0.4});
    const AllocationProblem problem(norm, types, matrix);
    return SafetyGoalSet::derive(problem, allocate_water_filling(problem));
}

TEST(ChannelBudget, SingleChannelGetsWholeShare) {
    ChainTemplate chain;
    chain.perception_channels = 1;
    const auto budget = channel_budget(Frequency::per_hour(1e-7), chain);
    EXPECT_NEAR(budget.per_hour_value(), 0.45e-7, 1e-20);
}

TEST(ChannelBudget, RedundancyLoosensChannelBudgetsByOrdersOfMagnitude) {
    ChainTemplate chain;  // 2 channels, tau = 0.1 h, share 0.45
    const auto goal_budget = Frequency::per_hour(1e-8);
    const auto two = channel_budget(goal_budget, chain);
    // lambda = sqrt(0.45e-8 / (2 * 0.1)) = 1.5e-4: five orders looser than
    // the goal budget - Sec. V's QM-grade channels.
    EXPECT_NEAR(two.per_hour_value(), 1.5e-4, 1e-7);
    chain.perception_channels = 3;
    const auto three = channel_budget(goal_budget, chain);
    EXPECT_GT(three, two);
    // Consistency: n channels at the derived budget combine back to the
    // perception share of the goal budget.
    const auto recombined = quant::k_of_n_rate(1, 3, three, chain.redundancy_window_hours);
    EXPECT_NEAR(recombined.per_hour_value(), 0.45e-8, 1e-12);
}

TEST(ChannelBudget, ValidatesTemplate) {
    ChainTemplate chain;
    chain.perception_channels = 0;
    EXPECT_THROW(channel_budget(Frequency::per_hour(1e-8), chain), std::invalid_argument);
    chain = ChainTemplate{};
    chain.redundancy_window_hours = 0.0;
    EXPECT_THROW(channel_budget(Frequency::per_hour(1e-8), chain), std::invalid_argument);
    chain = ChainTemplate{};
    chain.perception_share = 0.6;
    chain.planning_share = 0.3;
    chain.actuation_share = 0.2;  // sums to 1.1
    EXPECT_THROW(channel_budget(Frequency::per_hour(1e-8), chain), std::invalid_argument);
}

TEST(RefineGoal, ProducesClosedRefinement) {
    const auto goals = paper_goals();
    const auto& goal = goals.by_incident_type("I2");
    ChainTemplate chain;
    const auto refinement = refine_goal(goal, chain);
    // 2 channel FSRs + planning + actuation.
    EXPECT_EQ(refinement.requirements().size(), 4u);
    EXPECT_LE(refinement.combined_rate(), goal.max_frequency);
    // The perception block contributes its share, planning and actuation
    // theirs; combined = (0.45 + 0.3 + 0.2) * budget (to rounding).
    EXPECT_NEAR(refinement.combined_rate().per_hour_value(),
                0.95 * goal.max_frequency.per_hour_value(),
                1e-6 * goal.max_frequency.per_hour_value());
}

TEST(RefineGoal, SingleChannelVariant) {
    const auto goals = paper_goals();
    ChainTemplate chain;
    chain.perception_channels = 1;
    const auto refinement = refine_goal(goals.all().at(0), chain);
    EXPECT_EQ(refinement.requirements().size(), 3u);
    EXPECT_LE(refinement.combined_rate(), goals.all().at(0).max_frequency);
}

TEST(RefineGoal, RequirementsTraceToGoalAndCarryCauses) {
    const auto goals = paper_goals();
    const auto refinement = refine_goal(goals.all().at(2), ChainTemplate{});
    bool has_perf = false, has_sys = false, has_hw = false;
    for (const auto& fsr : refinement.requirements()) {
        EXPECT_EQ(fsr.safety_goal_id, goals.all().at(2).id);
        EXPECT_FALSE(fsr.text.empty());
        EXPECT_GT(fsr.budget.per_hour_value(), 0.0);
        has_perf |= fsr.cause == quant::CauseCategory::PerformanceLimitation;
        has_sys |= fsr.cause == quant::CauseCategory::SystematicDesign;
        has_hw |= fsr.cause == quant::CauseCategory::RandomHardware;
    }
    // All three cause categories share the one budget (Sec. V).
    EXPECT_TRUE(has_perf);
    EXPECT_TRUE(has_sys);
    EXPECT_TRUE(has_hw);
}

TEST(DeriveFsc, CoversEveryGoal) {
    const auto goals = paper_goals();
    const auto fsc = derive_fsc(goals, ChainTemplate{});
    EXPECT_EQ(fsc.size(), goals.size());
    for (const auto& g : goals.all()) {
        EXPECT_LE(fsc.by_goal(g.id).combined_rate(), g.max_frequency);
    }
}

TEST(DeriveFsc, ChannelBudgetsExceedGoalBudgets) {
    // The Sec. V headline: element budgets in a redundant FSC are far
    // looser than the vehicle-level goal budget.
    const auto goals = paper_goals();
    const auto fsc = derive_fsc(goals, ChainTemplate{});
    const auto& tightest_goal = goals.by_incident_type("I3");
    const auto& refinement = fsc.by_goal(tightest_goal.id);
    for (const auto& fsr : refinement.requirements()) {
        if (fsr.cause == quant::CauseCategory::PerformanceLimitation) {
            EXPECT_GT(fsr.budget.per_hour_value(),
                      10.0 * tightest_goal.max_frequency.per_hour_value());
        }
    }
}

}  // namespace
}  // namespace qrn::fsc
