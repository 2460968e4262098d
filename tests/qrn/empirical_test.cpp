// Empirical contribution estimation: sampling correctness, tallying, and
// convergence of the estimated matrix to the generating model.
#include "qrn/empirical.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn {
namespace {

Incident vru_collision(double dv) {
    Incident i;
    i.second = ActorType::Vru;
    i.relative_speed_kmh = dv;
    return i;
}

Incident vru_near_miss() {
    Incident i;
    i.second = ActorType::Vru;
    i.mechanism = IncidentMechanism::NearMiss;
    i.min_distance_m = 0.5;
    i.relative_speed_kmh = 15.0;
    return i;
}

TEST(SampleConsequence, NearMissFollowsProfile) {
    const auto norm = RiskNorm::paper_example();
    const InjuryRiskModel model;
    stats::Rng rng(1);
    int q1 = 0, q2 = 0, none = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const auto label = sample_consequence(vru_near_miss(), norm, model, {0.6, 0.3}, rng);
        if (!label) {
            ++none;
        } else if (*label == 0) {
            ++q1;
        } else if (*label == 1) {
            ++q2;
        } else {
            FAIL() << "near miss landed outside the profile classes";
        }
    }
    EXPECT_NEAR(q1 / static_cast<double>(n), 0.6, 0.02);
    EXPECT_NEAR(q2 / static_cast<double>(n), 0.3, 0.02);
    EXPECT_NEAR(none / static_cast<double>(n), 0.1, 0.02);
}

TEST(SampleConsequence, CollisionFollowsInjuryModel) {
    const auto norm = RiskNorm::paper_example();
    const InjuryRiskModel model;
    stats::Rng rng(2);
    const double dv = 30.0;
    const auto expected = model.outcome(ActorType::Vru, dv);
    int fatal = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const auto label = sample_consequence(vru_collision(dv), norm, model, {}, rng);
        if (label && norm.classes().at(*label).id == "vS3") ++fatal;
    }
    EXPECT_NEAR(fatal / static_cast<double>(n),
                expected.at(InjuryGrade::LifeThreatening), 0.01);
}

TEST(SampleConsequence, ZeroSpeedCollisionHasNoConsequence) {
    const auto norm = RiskNorm::paper_example();
    const InjuryRiskModel model;
    stats::Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(
            sample_consequence(vru_collision(0.0), norm, model, {}, rng).has_value());
    }
}

TEST(SampleConsequence, RejectsOversizedProfile) {
    const auto norm = RiskNorm::paper_example();
    const InjuryRiskModel model;
    stats::Rng rng(4);
    EXPECT_THROW(
        sample_consequence(vru_near_miss(), norm, model, {0.3, 0.3, 0.3, 0.3}, rng),
        std::invalid_argument);
}

TEST(TallyContributions, CountsPerTypeAndClass) {
    const auto types = IncidentTypeSet::paper_vru_example();
    std::vector<LabelledIncident> labelled = {
        {vru_collision(5.0), 3},          // I2 -> vS1
        {vru_collision(5.0), 3},          // I2 -> vS1
        {vru_collision(5.0), std::nullopt},  // I2, no consequence
        {vru_collision(30.0), 5},         // I3 -> vS3
        {vru_near_miss(), 0},             // I1 -> vQ1
        {vru_collision(200.0), 5},        // matches no type: ignored
    };
    const auto counts = tally_contributions(labelled, types, 6);
    EXPECT_EQ(counts.totals[0], 1u);
    EXPECT_EQ(counts.totals[1], 3u);
    EXPECT_EQ(counts.totals[2], 1u);
    EXPECT_EQ(counts.counts[3][1], 2u);
    EXPECT_EQ(counts.counts[5][2], 1u);
    EXPECT_EQ(counts.counts[0][0], 1u);
    const auto matrix = counts.point_matrix();
    EXPECT_NEAR(matrix.fraction(3, 1), 2.0 / 3.0, 1e-12);
}

TEST(TallyContributions, Validation) {
    const auto types = IncidentTypeSet::paper_vru_example();
    EXPECT_THROW(tally_contributions({}, types, 0), std::invalid_argument);
    std::vector<LabelledIncident> bad = {{vru_collision(5.0), 9}};
    EXPECT_THROW(tally_contributions(bad, types, 6), std::invalid_argument);
}

TEST(EndToEnd, EmpiricalMatrixConvergesToModelDerived) {
    // Generate a large synthetic "accident database" of I2/I3 collisions
    // uniform over each band, label it, and compare the estimated fractions
    // with the band-averaged model fractions used by from_injury_model.
    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel model;
    const auto model_matrix =
        ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});

    stats::Rng rng(5);
    std::vector<Incident> incidents;
    for (int i = 0; i < 40000; ++i) {
        incidents.push_back(vru_collision(rng.uniform(1e-6, 10.0)));   // I2 band
        incidents.push_back(vru_collision(rng.uniform(10.0, 70.0)));   // I3 band
    }
    const auto labelled = label_incidents(incidents, norm, model, {0.6, 0.4}, 5, 1);
    const auto counts = tally_contributions(labelled, types, norm.size());
    const auto empirical = counts.point_matrix();

    for (const std::size_t k : {1u, 2u}) {
        for (std::size_t j = 0; j < norm.size(); ++j) {
            EXPECT_NEAR(empirical.fraction(j, k), model_matrix.fraction(j, k), 0.02)
                << "class " << j << " type " << k;
        }
    }
}

}  // namespace
}  // namespace qrn
