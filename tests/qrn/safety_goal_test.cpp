// Safety-goal derivation: paper-style text, soundness guard, completeness
// argument.
#include "qrn/safety_goal.h"

#include <stdexcept>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace qrn {
namespace {

AllocationProblem paper_problem() {
    auto norm = RiskNorm::paper_example();
    auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel model;
    auto matrix = ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});
    return AllocationProblem(std::move(norm), std::move(types), std::move(matrix));
}

TEST(RenderGoalText, MatchesPaperStyle) {
    const IncidentType i2("I2", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0));
    const auto text = render_goal_text(i2, Frequency::per_hour(2.5e-7));
    EXPECT_EQ(text, "Avoid collision Ego<->VRU, 0 < dv <= 10 km/h, to below 2.5e-07 /h.");
}

TEST(RenderGoalText, NearMissVariant) {
    const IncidentType i1("I1", ActorType::Vru, ToleranceMargin::proximity(1.0, 10.0));
    const auto text = render_goal_text(i1, Frequency::per_hour(1e-4));
    EXPECT_EQ(text,
              "Avoid near-miss Ego<->VRU, d < 1 m & dv > 10 km/h, to below 1.0e-04 /h.");
}

TEST(SafetyGoalSet, DeriveOneGoalPerType) {
    const auto p = paper_problem();
    const auto alloc = allocate_proportional(p);
    const auto goals = SafetyGoalSet::derive(p, alloc);
    ASSERT_EQ(goals.size(), 3u);
    EXPECT_EQ(goals.all().at(0).id, "SG-I1");
    EXPECT_EQ(goals.all().at(1).incident_type_id, "I2");
    EXPECT_EQ(goals.by_incident_type("I3").counterparty, ActorType::Vru);
    EXPECT_EQ(goals.by_incident_type("I1").mechanism, IncidentMechanism::NearMiss);
    for (std::size_t k = 0; k < goals.size(); ++k) {
        EXPECT_EQ(goals.all().at(k).max_frequency, alloc.budgets[k]);
    }
    EXPECT_THROW(goals.by_incident_type("I9"), std::out_of_range);
}

TEST(SafetyGoalSet, RefusesUnsoundAllocation) {
    const auto p = paper_problem();
    Allocation bogus;
    bogus.budgets.assign(3, Frequency::per_hour(1.0));  // wildly over budget
    bogus.usage = evaluate_usage(p, bogus.budgets);
    EXPECT_THROW(SafetyGoalSet::derive(p, bogus), std::invalid_argument);
    Allocation short_alloc;
    short_alloc.budgets.assign(1, Frequency::per_hour(1e-9));
    EXPECT_THROW(SafetyGoalSet::derive(p, short_alloc), std::invalid_argument);
}

TEST(SafetyGoalSet, CompletenessArgumentTiesGoalsToMece) {
    const auto p = paper_problem();
    const auto goals = SafetyGoalSet::derive(p, allocate_proportional(p));
    const auto tree = ClassificationTree::paper_example();
    stats::Rng rng(7);
    const auto cert = tree.certify_mece(500, [&](std::size_t) {
        Incident i;
        i.second = ActorType::Vru;
        i.relative_speed_kmh = rng.uniform(0.0, 80.0);
        return i;
    });
    ASSERT_TRUE(cert.certified());
    const auto text = goals.completeness_argument(tree, cert);
    EXPECT_NE(text.find("SG-I2"), std::string::npos);
    EXPECT_NE(text.find("mutually exclusive"), std::string::npos);
    EXPECT_NE(text.find("500"), std::string::npos);
    EXPECT_NE(text.find("Ego<->VRU"), std::string::npos);
}

TEST(SafetyGoalSet, CompletenessArgumentListsCoverageGaps) {
    const auto p = paper_problem();
    const auto goals = SafetyGoalSet::derive(p, allocate_proportional(p));
    const auto tree = ClassificationTree::paper_example();
    stats::Rng rng(8);
    const auto sampler = [&](std::size_t) {
        Incident i;
        i.second = rng.bernoulli(0.5) ? ActorType::Vru : ActorType::Car;
        i.relative_speed_kmh = rng.uniform(1.0, 60.0);
        return i;
    };
    const auto cert = tree.certify_mece(500, sampler);
    stats::Rng rng2(8);
    const auto coverage = check_type_coverage(tree, p.types(), 2000, [&](std::size_t) {
        Incident i;
        i.second = rng2.bernoulli(0.5) ? ActorType::Vru : ActorType::Car;
        i.relative_speed_kmh = rng2.uniform(1.0, 60.0);
        return i;
    });
    const auto text = goals.completeness_argument(tree, cert, &coverage);
    EXPECT_NE(text.find("Goal coverage"), std::string::npos);
    EXPECT_NE(text.find("OPEN OBLIGATIONS"), std::string::npos);
    EXPECT_NE(text.find("Ego<->Car"), std::string::npos);
    // Without a coverage report the section is absent.
    const auto bare = goals.completeness_argument(tree, cert);
    EXPECT_EQ(bare.find("Goal coverage"), std::string::npos);
}

TEST(SafetyGoalSet, CompletenessArgumentRejectsFailedCertificate) {
    const auto p = paper_problem();
    const auto goals = SafetyGoalSet::derive(p, allocate_proportional(p));
    const auto tree = ClassificationTree::paper_example();
    MeceReport bad;
    bad.samples = 10;
    bad.violations.push_back({"root", 0, "x"});
    EXPECT_THROW((void)goals.completeness_argument(tree, bad), std::invalid_argument);
}

}  // namespace
}  // namespace qrn
