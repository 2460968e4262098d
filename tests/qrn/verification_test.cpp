// Eq. 1 verification against evidence: verdict boundaries, statistical
// upper bounds, and input validation.
#include "qrn/verification.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn {
namespace {

/// One class, one type, contribution 1.0: the simplest Eq. 1 instance.
struct SimpleFixture {
    AllocationProblem problem;
    Allocation allocation;

    static SimpleFixture make(double limit_per_hour, double budget_per_hour) {
        const ConsequenceClassSet classes(
            {{"vS", "injuries", ConsequenceDomain::Safety, 1, ""}});
        RiskNorm norm(classes, {Frequency::per_hour(limit_per_hour)});
        IncidentTypeSet types({IncidentType("I", ActorType::Vru,
                                            ToleranceMargin::impact_speed(0.0, 10.0))});
        ContributionMatrix matrix(1, 1, {{1.0}});
        AllocationProblem p(std::move(norm), std::move(types), std::move(matrix));
        Allocation a;
        a.budgets = {Frequency::per_hour(budget_per_hour)};
        a.usage = evaluate_usage(p, a.budgets);
        return SimpleFixture{std::move(p), std::move(a)};
    }
};

TEST(Verification, ZeroEventsOverLongExposureFulfils) {
    auto fx = SimpleFixture::make(1e-4, 1e-4);
    // Rule of three: zero events over 100000 h bound the rate at ~3e-5 < 1e-4.
    const std::vector<TypeEvidence> evidence{{"I", 0, ExposureHours(1e5)}};
    const auto report = verify_against_evidence(fx.problem, fx.allocation, evidence, 0.95);
    ASSERT_EQ(report.classes.size(), 1u);
    EXPECT_EQ(report.classes[0].verdict, ClassVerdict::Fulfilled);
    EXPECT_TRUE(report.norm_fulfilled());
    ASSERT_EQ(report.goals.size(), 1u);
    EXPECT_EQ(report.goals[0].verdict, ClassVerdict::Fulfilled);
}

TEST(Verification, ZeroEventsOverShortExposureIsInconclusive) {
    auto fx = SimpleFixture::make(1e-4, 1e-4);
    // Zero events over 1000 h: point 0 but upper ~3e-3 > 1e-4.
    const std::vector<TypeEvidence> evidence{{"I", 0, ExposureHours(1000.0)}};
    const auto report = verify_against_evidence(fx.problem, fx.allocation, evidence, 0.95);
    EXPECT_EQ(report.classes[0].verdict, ClassVerdict::PointFulfilled);
    EXPECT_FALSE(report.norm_fulfilled());
    EXPECT_TRUE(report.norm_point_fulfilled());
}

TEST(Verification, HighCountViolates) {
    auto fx = SimpleFixture::make(1e-4, 1e-4);
    const std::vector<TypeEvidence> evidence{{"I", 100, ExposureHours(1000.0)}};
    const auto report = verify_against_evidence(fx.problem, fx.allocation, evidence, 0.95);
    EXPECT_EQ(report.classes[0].verdict, ClassVerdict::Violated);
    EXPECT_EQ(report.goals[0].verdict, ClassVerdict::Violated);
    EXPECT_FALSE(report.norm_point_fulfilled());
}

TEST(Verification, UpperBoundDominatesPoint) {
    auto fx = SimpleFixture::make(1e-2, 1e-2);
    const std::vector<TypeEvidence> evidence{{"I", 5, ExposureHours(1000.0)}};
    const auto report = verify_against_evidence(fx.problem, fx.allocation, evidence, 0.95);
    EXPECT_GT(report.goals[0].upper_rate.per_hour_value(),
              report.goals[0].point_rate.per_hour_value());
    EXPECT_NEAR(report.goals[0].point_rate.per_hour_value(), 5e-3, 1e-12);
}

TEST(Verification, ContributionsScaleClassUsage) {
    // Two types with fractions 0.7 / 0.3 into one class.
    const ConsequenceClassSet classes({{"v", "x", ConsequenceDomain::Safety, 1, ""}});
    RiskNorm norm(classes, {Frequency::per_hour(1.0)});
    IncidentTypeSet types({
        IncidentType("A", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0)),
        IncidentType("B", ActorType::Car, ToleranceMargin::impact_speed(0.0, 10.0)),
    });
    ContributionMatrix matrix(1, 2, {{0.7, 0.3}});
    AllocationProblem p(norm, types, matrix);
    Allocation a;
    a.budgets = {Frequency::per_hour(0.5), Frequency::per_hour(0.5)};
    const std::vector<TypeEvidence> evidence{{"A", 100, ExposureHours(1000.0)},
                                             {"B", 200, ExposureHours(1000.0)}};
    const auto report = verify_against_evidence(p, a, evidence, 0.9);
    // Point usage = 0.7*0.1 + 0.3*0.2 = 0.13.
    EXPECT_NEAR(report.classes[0].point_usage.per_hour_value(), 0.13, 1e-12);
}

TEST(Verification, EvidenceOrderIsFree) {
    auto norm = RiskNorm::paper_example();
    auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel model;
    auto matrix = ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});
    AllocationProblem p(norm, types, matrix);
    const auto alloc = allocate_proportional(p);
    const std::vector<TypeEvidence> evidence{{"I3", 0, ExposureHours(1e9)},
                                             {"I1", 2, ExposureHours(1e9)},
                                             {"I2", 1, ExposureHours(1e9)}};
    const auto report = verify_against_evidence(p, alloc, evidence, 0.95);
    EXPECT_EQ(report.goals[0].incident_type_id, "I1");
    EXPECT_EQ(report.goals[2].incident_type_id, "I3");
    EXPECT_TRUE(report.norm_fulfilled());
}

TEST(Verification, InputValidation) {
    auto fx = SimpleFixture::make(1e-4, 1e-4);
    const std::vector<TypeEvidence> ok{{"I", 0, ExposureHours(10.0)}};
    EXPECT_THROW(
        verify_against_evidence(fx.problem, fx.allocation, ok, 0.0),
        std::invalid_argument);
    EXPECT_THROW(verify_against_evidence(fx.problem, fx.allocation, {}, 0.95),
                 std::invalid_argument);
    const std::vector<TypeEvidence> unknown{{"X", 0, ExposureHours(10.0)}};
    EXPECT_THROW(verify_against_evidence(fx.problem, fx.allocation, unknown, 0.95),
                 std::invalid_argument);
    const std::vector<TypeEvidence> zero_exposure{{"I", 0, ExposureHours(0.0)}};
    EXPECT_THROW(verify_against_evidence(fx.problem, fx.allocation, zero_exposure, 0.95),
                 std::invalid_argument);
    Allocation wrong;
    wrong.budgets = {};
    EXPECT_THROW(verify_against_evidence(fx.problem, wrong, ok, 0.95),
                 std::invalid_argument);
}

TEST(Verification, DuplicateEvidenceRejected) {
    auto fx = SimpleFixture::make(1e-4, 1e-4);
    const std::vector<TypeEvidence> dup{{"I", 0, ExposureHours(10.0)},
                                        {"I", 1, ExposureHours(10.0)}};
    EXPECT_THROW(verify_against_evidence(fx.problem, fx.allocation, dup, 0.95),
                 std::invalid_argument);
}

// Every type shares one exposure T, and at fixed counts every upper bound
// scales as 1/T. So with no further event, class j reads FULFILLED from
// T * upper_usage_j / L_j hours in total (the figure examples/urban_robotaxi
// prints for each class not yet FULFILLED).
TEST(Verification, FulfilsAtObservedExposureTimesUpperUsageOverLimit) {
    const ConsequenceClassSet classes({{"v1", "x", ConsequenceDomain::Safety, 1, ""},
                                       {"v2", "y", ConsequenceDomain::Safety, 2, ""}});
    RiskNorm norm(classes, {Frequency::per_hour(5e-3), Frequency::per_hour(4e-3)});
    IncidentTypeSet types({
        IncidentType("A", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0)),
        IncidentType("B", ActorType::Car, ToleranceMargin::impact_speed(0.0, 10.0)),
    });
    ContributionMatrix matrix(2, 2, {{0.7, 0.3}, {0.2, 0.5}});
    AllocationProblem p(norm, types, matrix);
    Allocation a;
    a.budgets = {Frequency::per_hour(1e-3), Frequency::per_hour(1e-3)};
    const auto verify_at = [&](double hours) {
        const std::vector<TypeEvidence> evidence{{"A", 5, ExposureHours(hours)},
                                                 {"B", 2, ExposureHours(hours)}};
        return verify_against_evidence(p, a, evidence, 0.95);
    };
    const double observed = 1000.0;
    const auto report = verify_at(observed);
    for (std::size_t j = 0; j < report.classes.size(); ++j) {
        const auto& c = report.classes[j];
        ASSERT_EQ(c.verdict, ClassVerdict::PointFulfilled) << c.class_id;
        const double needed =
            observed * c.upper_usage.per_hour_value() / c.limit.per_hour_value();
        EXPECT_EQ(verify_at(needed * (1.0 + 1e-9)).classes[j].verdict,
                  ClassVerdict::Fulfilled)
            << c.class_id;
        EXPECT_NE(verify_at(needed * 0.99).classes[j].verdict, ClassVerdict::Fulfilled)
            << c.class_id;
    }
}

TEST(ExposureToDemonstrate, MatchesRuleOfThree) {
    const auto t = exposure_to_demonstrate(Frequency::per_hour(1e-8), 0.95);
    EXPECT_NEAR(t.hours(), 3.0e8, 2e7);  // ~ -ln(0.05)/1e-8 ~ 3e8 h
}

TEST(ClassVerdict, Naming) {
    EXPECT_EQ(to_string(ClassVerdict::Fulfilled), "FULFILLED");
    EXPECT_EQ(to_string(ClassVerdict::PointFulfilled), "POINT-ONLY");
    EXPECT_EQ(to_string(ClassVerdict::Violated), "VIOLATED");
}

}  // namespace
}  // namespace qrn
