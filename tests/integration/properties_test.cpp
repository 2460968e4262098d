// Cross-module property tests: invariants that must hold across randomised
// inputs, parameterised over seeds.
#include <gtest/gtest.h>

#include "qrn/qrn.h"
#include "stats/rng.h"

namespace qrn {
namespace {

AllocationProblem paper_problem() {
    auto norm = RiskNorm::paper_example();
    auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel injury;
    auto matrix = ContributionMatrix::from_injury_model(norm, types, injury, {0.6, 0.4});
    return AllocationProblem(std::move(norm), std::move(types), std::move(matrix));
}

class PropertySeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySeeds, VerificationVerdictMonotoneInEventCount) {
    // Adding events (same exposure) can never improve any verdict.
    const auto problem = paper_problem();
    const auto allocation = allocate_water_filling(problem);
    stats::Rng rng(GetParam());
    const double exposure = rng.uniform(1e4, 1e8);
    std::vector<TypeEvidence> low, high;
    for (const auto& t : problem.types().all()) {
        const auto base = static_cast<std::uint64_t>(rng.uniform_int(0, 20));
        low.push_back({t.id(), base, ExposureHours(exposure)});
        high.push_back({t.id(),
                        base + static_cast<std::uint64_t>(rng.uniform_int(1, 1000)),
                        ExposureHours(exposure)});
    }
    const auto report_low = verify_against_evidence(problem, allocation, low, 0.95);
    const auto report_high = verify_against_evidence(problem, allocation, high, 0.95);
    for (std::size_t j = 0; j < report_low.classes.size(); ++j) {
        EXPECT_GE(static_cast<int>(report_high.classes[j].verdict),
                  static_cast<int>(report_low.classes[j].verdict))
            << "class " << report_low.classes[j].class_id;
        EXPECT_GE(report_high.classes[j].upper_usage.per_hour_value(),
                  report_low.classes[j].upper_usage.per_hour_value());
    }
}

TEST_P(PropertySeeds, VerificationVerdictMonotoneInExposure) {
    // More exposure with the same counts can never worsen any verdict.
    const auto problem = paper_problem();
    const auto allocation = allocate_water_filling(problem);
    stats::Rng rng(GetParam() ^ 0x5555);
    const double exposure = rng.uniform(1e3, 1e6);
    std::vector<TypeEvidence> small, large;
    for (const auto& t : problem.types().all()) {
        const auto events = static_cast<std::uint64_t>(rng.uniform_int(0, 50));
        small.push_back({t.id(), events, ExposureHours(exposure)});
        large.push_back({t.id(), events, ExposureHours(exposure * 100.0)});
    }
    const auto report_small = verify_against_evidence(problem, allocation, small, 0.95);
    const auto report_large = verify_against_evidence(problem, allocation, large, 0.95);
    for (std::size_t j = 0; j < report_small.classes.size(); ++j) {
        EXPECT_LE(static_cast<int>(report_large.classes[j].verdict),
                  static_cast<int>(report_small.classes[j].verdict));
    }
}

TEST_P(PropertySeeds, AllocationScalesLinearlyWithUniformNormScaling) {
    // Scaling every class limit by s scales every proportional budget by s.
    stats::Rng rng(GetParam() ^ 0xAAAA);
    const double s = rng.uniform(0.05, 0.9);
    const auto norm = RiskNorm::paper_example();
    auto scaled = norm;
    for (std::size_t j = 0; j < norm.size(); ++j) {
        scaled = scaled.with_scaled_limit(norm.classes().at(j).id, s);
    }
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel injury;
    const auto matrix =
        ContributionMatrix::from_injury_model(norm, types, injury, {0.6, 0.4});
    const AllocationProblem base(norm, types, matrix);
    const AllocationProblem tightened(scaled, types, matrix);
    const auto a0 = allocate_proportional(base);
    const auto a1 = allocate_proportional(tightened);
    for (std::size_t k = 0; k < types.size(); ++k) {
        EXPECT_NEAR(a1.budgets[k].per_hour_value(),
                    s * a0.budgets[k].per_hour_value(),
                    1e-9 * a0.budgets[k].per_hour_value());
    }
}

TEST_P(PropertySeeds, GoalsFulfilledImpliesNormFulfilledAtConservativeBudgets) {
    // Linearity of Eq. 1: if every observed upper rate is within its
    // budget, the per-class sums are within the limits (the allocation
    // satisfies the norm by construction).
    const auto problem = paper_problem();
    const auto allocation = allocate_water_filling(problem);
    stats::Rng rng(GetParam() ^ 0x77);
    std::vector<TypeEvidence> evidence;
    for (std::size_t k = 0; k < problem.types().size(); ++k) {
        // Pick exposure large enough that the upper bound on a modest count
        // sits below the budget.
        const auto events = static_cast<std::uint64_t>(rng.uniform_int(0, 10));
        const double needed =
            (static_cast<double>(events) + 5.0) /
            allocation.budgets[k].per_hour_value();
        evidence.push_back(
            {problem.types().at(k).id(), events, ExposureHours(needed * 2.0)});
    }
    const auto report = verify_against_evidence(problem, allocation, evidence, 0.95);
    for (const auto& goal : report.goals) {
        ASSERT_EQ(goal.verdict, ClassVerdict::Fulfilled) << goal.incident_type_id;
    }
    EXPECT_TRUE(report.norm_fulfilled());
}

TEST_P(PropertySeeds, SafetyGoalTextRoundTripsThroughSerialization) {
    // Serialize -> parse -> re-derive: the goal set is unchanged.
    const auto problem = paper_problem();
    const auto allocation = allocate_water_filling(problem);
    const auto goals = SafetyGoalSet::derive(problem, allocation);
    const auto types_doc = to_json(problem.types());
    const auto norm_doc = to_json(problem.norm());
    const auto types2 = incident_types_from_json(json::parse(types_doc.dump()));
    const auto norm2 = risk_norm_from_json(json::parse(norm_doc.dump()));
    const InjuryRiskModel injury;
    const auto matrix2 =
        ContributionMatrix::from_injury_model(norm2, types2, injury, {0.6, 0.4});
    const AllocationProblem problem2(norm2, types2, matrix2);
    const auto goals2 = SafetyGoalSet::derive(problem2, allocate_water_filling(problem2));
    ASSERT_EQ(goals.size(), goals2.size());
    for (std::size_t k = 0; k < goals.size(); ++k) {
        EXPECT_EQ(goals.all().at(k).text, goals2.all().at(k).text);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeeds,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u));

}  // namespace
}  // namespace qrn
