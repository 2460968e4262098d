// FSR / GoalRefinement / FunctionalSafetyConcept invariants.
#include "fsc/fsr.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn::fsc {
namespace {

SafetyGoal make_goal(const std::string& id = "SG-I2", double budget = 1e-7) {
    SafetyGoal g;
    g.id = id;
    g.incident_type_id = id.substr(3);
    g.counterparty = ActorType::Vru;
    g.mechanism = IncidentMechanism::Collision;
    g.max_frequency = Frequency::per_hour(budget);
    g.text = "Avoid collision Ego<->VRU, 0 < dv <= 10 km/h, to below 1.0e-07 /h.";
    return g;
}

FunctionalSafetyRequirement make_fsr(const std::string& id, const std::string& goal_id,
                                     double budget) {
    return {id, goal_id, "element", "obligation", Frequency::per_hour(budget),
            quant::CauseCategory::SystematicDesign};
}

std::unique_ptr<quant::ArchNode> simple_arch(double rate) {
    return quant::ArchNode::element("element", Frequency::per_hour(rate));
}

TEST(GoalRefinement, AcceptsClosedBudget) {
    const GoalRefinement r(make_goal(), {make_fsr("F1", "SG-I2", 5e-8)},
                           simple_arch(5e-8));
    EXPECT_NEAR(r.combined_rate().per_hour_value(), 5e-8, 1e-20);
}

TEST(GoalRefinement, RejectsOverBudgetArchitecture) {
    EXPECT_THROW(GoalRefinement(make_goal(), {make_fsr("F1", "SG-I2", 2e-7)},
                                simple_arch(2e-7)),
                 std::invalid_argument);
}

TEST(GoalRefinement, RejectsStructuralDefects) {
    EXPECT_THROW(GoalRefinement(make_goal(), {}, simple_arch(1e-8)),
                 std::invalid_argument);
    EXPECT_THROW(GoalRefinement(make_goal(), {make_fsr("F1", "SG-I2", 1e-8)}, nullptr),
                 std::invalid_argument);
    EXPECT_THROW(GoalRefinement(make_goal(),
                                {make_fsr("F1", "SG-I2", 1e-8),
                                 make_fsr("F1", "SG-I2", 1e-8)},
                                simple_arch(1e-8)),
                 std::invalid_argument);
    EXPECT_THROW(GoalRefinement(make_goal(), {make_fsr("F1", "SG-OTHER", 1e-8)},
                                simple_arch(1e-8)),
                 std::invalid_argument);
    EXPECT_THROW(GoalRefinement(make_goal(), {make_fsr("", "SG-I2", 1e-8)},
                                simple_arch(1e-8)),
                 std::invalid_argument);
}

// Builds a tiny but valid SafetyGoalSet via the real pipeline.
SafetyGoalSet paper_goals() {
    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel injury;
    const auto matrix =
        ContributionMatrix::from_injury_model(norm, types, injury, {0.6, 0.4});
    const AllocationProblem problem(norm, types, matrix);
    return SafetyGoalSet::derive(problem, allocate_proportional(problem));
}

TEST(FunctionalSafetyConcept, RequiresRefinementPerGoal) {
    const auto goals = paper_goals();
    std::vector<GoalRefinement> refinements;
    for (const auto& g : goals.all()) {
        refinements.emplace_back(
            g,
            std::vector<FunctionalSafetyRequirement>{
                {"F-" + g.id, g.id, "e", "t", g.max_frequency * 0.5,
                 quant::CauseCategory::SystematicDesign}},
            quant::ArchNode::element("e", g.max_frequency * 0.5));
    }
    const FunctionalSafetyConcept fsc(goals, std::move(refinements));
    EXPECT_EQ(fsc.size(), goals.size());
    EXPECT_EQ(fsc.by_goal("SG-I2").goal().id, "SG-I2");
    EXPECT_THROW(fsc.by_goal("SG-NOPE"), std::out_of_range);
    EXPECT_EQ(fsc.all_requirements().size(), goals.size());
}

TEST(FunctionalSafetyConcept, RejectsMissingRefinement) {
    const auto goals = paper_goals();
    std::vector<GoalRefinement> one;
    const auto& g = goals.all().at(0);
    one.emplace_back(g,
                     std::vector<FunctionalSafetyRequirement>{
                         {"F", g.id, "e", "t", g.max_frequency * 0.5,
                          quant::CauseCategory::SystematicDesign}},
                     quant::ArchNode::element("e", g.max_frequency * 0.5));
    EXPECT_THROW(FunctionalSafetyConcept(goals, std::move(one)), std::invalid_argument);
}

}  // namespace
}  // namespace qrn::fsc
