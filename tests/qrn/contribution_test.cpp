// Contribution matrices: validation, derivation from the injury model and
// empirical estimation from counts.
#include "qrn/contribution.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn {
namespace {

ContributionMatrix small_matrix() {
    // 2 classes x 2 types.
    return ContributionMatrix(2, 2, {{0.7, 0.0}, {0.3, 0.5}});
}

TEST(ContributionMatrix, AccessorsAndSums) {
    const auto m = small_matrix();
    EXPECT_DOUBLE_EQ(m.fraction(0, 0), 0.7);
    EXPECT_DOUBLE_EQ(m.fraction(1, 1), 0.5);
    EXPECT_DOUBLE_EQ(m.column_sum(0), 1.0);
    EXPECT_DOUBLE_EQ(m.column_sum(1), 0.5);
    EXPECT_TRUE(m.contributes(0, 0));
    EXPECT_FALSE(m.contributes(0, 1));
    EXPECT_TRUE(m.contributes(1, 0));
    EXPECT_TRUE(m.contributes(1, 1));
}

TEST(ContributionMatrix, ValidationRejectsBadShapes) {
    EXPECT_THROW(ContributionMatrix(0, 1, {}), std::invalid_argument);
    EXPECT_THROW(ContributionMatrix(2, 2, {{0.5, 0.5}}), std::invalid_argument);
    EXPECT_THROW(ContributionMatrix(1, 2, {{0.5}}), std::invalid_argument);
}

TEST(ContributionMatrix, ValidationRejectsBadFractions) {
    EXPECT_THROW(ContributionMatrix(1, 1, {{-0.1}}), std::invalid_argument);
    EXPECT_THROW(ContributionMatrix(1, 1, {{1.1}}), std::invalid_argument);
    // Column sum above one.
    EXPECT_THROW(ContributionMatrix(2, 1, {{0.7}, {0.6}}), std::invalid_argument);
}

TEST(ContributionMatrix, IndexDomain) {
    const auto m = small_matrix();
    EXPECT_THROW(m.fraction(2, 0), std::out_of_range);
    EXPECT_THROW(m.fraction(0, 2), std::out_of_range);
    EXPECT_THROW(m.column_sum(5), std::out_of_range);
}

TEST(FromInjuryModel, PaperVruTypesProduceSensibleStructure) {
    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel model;
    const auto m = ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});

    ASSERT_EQ(m.class_count(), 6u);
    ASSERT_EQ(m.type_count(), 3u);
    // I1 (near miss) feeds the first two quality classes per the profile.
    EXPECT_DOUBLE_EQ(m.fraction(0, 0), 0.6);  // vQ1
    EXPECT_DOUBLE_EQ(m.fraction(1, 0), 0.4);  // vQ2
    EXPECT_DOUBLE_EQ(m.fraction(3, 0), 0.0);  // no injury contribution
    // I2 (low-speed collision) lands mostly below severe injuries.
    EXPECT_GT(m.fraction(3, 1), 0.0);              // vS1 light/moderate
    EXPECT_LT(m.fraction(5, 1), m.fraction(5, 2)); // fatal share smaller than I3's
    // I3 (10-70 km/h) contributes to the fatal class vS3.
    EXPECT_GT(m.fraction(5, 2), 0.01);
    // Material damage from collisions routes to vQ3 (index 2).
    EXPECT_GT(m.fraction(2, 1), 0.0);
}

TEST(FromInjuryModel, SeveritySeparationReducesSpread) {
    // The paper (Sec. III-B): separating incidents by severity should make
    // "each I contribute to as few of the defined v as possible". The
    // low-speed type must touch no more classes than a hypothetical
    // all-speed type.
    const auto norm = RiskNorm::paper_example();
    const InjuryRiskModel model;
    const IncidentTypeSet split({
        IncidentType("LOW", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0)),
        IncidentType("ALL", ActorType::Car, ToleranceMargin::impact_speed(0.0, 150.0)),
    });
    const auto m = ContributionMatrix::from_injury_model(norm, split, model, {});
    const auto classes_touched = [&](std::size_t k) {
        std::size_t n = 0;
        for (std::size_t j = 0; j < m.class_count(); ++j) n += m.contributes(j, k);
        return n;
    };
    EXPECT_LE(classes_touched(0), classes_touched(1));
}

TEST(FromInjuryModel, RejectsOversizedNearMissProfile) {
    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel model;
    EXPECT_THROW(ContributionMatrix::from_injury_model(norm, types, model,
                                                       {0.3, 0.3, 0.3, 0.3}),
                 std::invalid_argument);
}

TEST(FromCounts, EstimatesFractions) {
    // 2 classes, 2 types; type 0: 70 class-0 + 30 class-1 of 100 total;
    // type 1: 5 class-1 of 50 total (45 without consequence).
    const auto m = ContributionMatrix::from_counts(2, 2, {{70, 0}, {30, 5}}, {100, 50});
    EXPECT_DOUBLE_EQ(m.fraction(0, 0), 0.7);
    EXPECT_DOUBLE_EQ(m.fraction(1, 0), 0.3);
    EXPECT_DOUBLE_EQ(m.fraction(1, 1), 0.1);
    EXPECT_DOUBLE_EQ(m.column_sum(1), 0.1);
}

TEST(FromCounts, ZeroTotalsGiveZeroColumns) {
    const auto m = ContributionMatrix::from_counts(1, 1, {{0}}, {0});
    EXPECT_DOUBLE_EQ(m.fraction(0, 0), 0.0);
}

TEST(FromCounts, RejectsInconsistentCounts) {
    EXPECT_THROW(ContributionMatrix::from_counts(1, 1, {{10}}, {5}),
                 std::invalid_argument);
    EXPECT_THROW(ContributionMatrix::from_counts(2, 1, {{1}}, {1}),
                 std::invalid_argument);
    EXPECT_THROW(ContributionMatrix::from_counts(1, 2, {{1}}, {1, 1}),
                 std::invalid_argument);
}

}  // namespace
}  // namespace qrn
