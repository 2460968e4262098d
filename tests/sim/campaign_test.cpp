// Campaign pooling: exposure accounting, count pooling, determinism and
// the pooled-evidence-tightens-bounds property.
#include "sim/campaign.h"

#include <algorithm>
#include <stdexcept>

#include <gtest/gtest.h>

#include "stats/rate_estimation.h"

namespace qrn::sim {
namespace {

CampaignConfig small_campaign(std::size_t fleets, double hours) {
    CampaignConfig config;
    config.base.odd = Odd::urban();
    config.base.policy = TacticalPolicy::nominal();
    config.base.seed = 100;
    config.fleets = fleets;
    config.hours_per_fleet = hours;
    return config;
}

TEST(Campaign, ExposureAndLogCounts) {
    const auto result = run_campaign(small_campaign(5, 200.0));
    EXPECT_EQ(result.logs.size(), 5u);
    EXPECT_DOUBLE_EQ(result.total_exposure.hours(), 1000.0);
}

TEST(Campaign, PooledEvidenceSumsFleetCounts) {
    const auto result = run_campaign(small_campaign(4, 300.0));
    const auto types = IncidentTypeSet::paper_vru_example();
    const auto pooled = result.pooled_evidence(types);
    ASSERT_EQ(pooled.size(), 3u);
    for (std::size_t k = 0; k < types.size(); ++k) {
        std::uint64_t expected = 0;
        for (const auto& log : result.logs) {
            expected += static_cast<std::uint64_t>(std::count_if(
                log.incidents.begin(), log.incidents.end(),
                [&](const Incident& incident) { return types.at(k).matches(incident); }));
        }
        EXPECT_EQ(pooled[k].events, expected);
        EXPECT_DOUBLE_EQ(pooled[k].exposure.hours(), 1200.0);
    }
}

TEST(Campaign, DeterministicAndSeedStaggered) {
    const auto a = run_campaign(small_campaign(3, 150.0));
    const auto b = run_campaign(small_campaign(3, 150.0));
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(a.logs[i].incidents.size(), b.logs[i].incidents.size());
        EXPECT_EQ(a.logs[i].encounters, b.logs[i].encounters);
    }
    // Different fleets use different seeds: they should not be identical.
    EXPECT_NE(a.logs[0].encounters, a.logs[1].encounters);
}

TEST(Campaign, PooledRateMatchesTotals) {
    const auto result = run_campaign(small_campaign(4, 250.0));
    double events = 0.0;
    for (const auto& log : result.logs) events += static_cast<double>(log.incidents.size());
    const auto aggregate = result.aggregate(IncidentTypeSet::paper_vru_example());
    EXPECT_DOUBLE_EQ(aggregate.pooled_incident_rate().per_hour_value(), events / 1000.0);
}

TEST(Campaign, RateSummaryDescribesDispersion) {
    const auto result = run_campaign(small_campaign(8, 250.0));
    const auto summary =
        result.aggregate(IncidentTypeSet::paper_vru_example()).per_fleet_rates;
    EXPECT_EQ(summary.count(), 8u);
    EXPECT_GE(summary.max(), summary.mean());
    EXPECT_LE(summary.min(), summary.mean());
}

TEST(Campaign, PoolingShrinksStatisticalUncertainty) {
    // The point of a campaign: with 10x the exposure, the gap between the
    // 95% upper bound and the point estimate (the statistical slack a
    // safety argument must absorb) shrinks for every incident type.
    const auto single = run_campaign(small_campaign(1, 500.0));
    const auto pooled = run_campaign(small_campaign(10, 500.0));
    const auto types = IncidentTypeSet::paper_vru_example();
    const auto single_ev = single.pooled_evidence(types);
    const auto pooled_ev = pooled.pooled_evidence(types);
    for (std::size_t k = 0; k < types.size(); ++k) {
        const stats::RateObservation single_obs{single_ev[k].events,
                                                single_ev[k].exposure.hours()};
        const stats::RateObservation pooled_obs{pooled_ev[k].events,
                                                pooled_ev[k].exposure.hours()};
        const double single_width =
            stats::rate_upper_bound(single_obs, 0.95) - stats::rate_mle(single_obs);
        const double pooled_width =
            stats::rate_upper_bound(pooled_obs, 0.95) - stats::rate_mle(pooled_obs);
        EXPECT_LT(pooled_width, single_width) << types.at(k).id();
    }
}

TEST(Campaign, HeterogeneityDispersionReflectsFleetMix) {
    // The simulated incident process is doubly stochastic (environment
    // regimes mix under each fleet), so even same-config fleets carry some
    // extra-Poisson dispersion. Mixing two very different policies must
    // inflate the dispersion index (chi^2 / dof) far beyond that baseline
    // and drive the p-value to ~0.
    const auto types = IncidentTypeSet::paper_vru_example();
    const auto same = run_campaign(small_campaign(8, 1500.0));
    const auto same_test = same.aggregate(types).heterogeneity();
    EXPECT_DOUBLE_EQ(same_test.degrees_of_freedom, 7.0);
    const double same_dispersion = same_test.chi_squared / same_test.degrees_of_freedom;

    auto cautious = small_campaign(4, 1500.0);
    cautious.base.policy = TacticalPolicy::cautious();
    auto performance = small_campaign(4, 1500.0);
    performance.base.policy = TacticalPolicy::performance();
    performance.base.seed = 500;
    auto mixed = run_campaign(cautious);
    const auto other = run_campaign(performance);
    for (const auto& log : other.logs) {
        mixed.logs.push_back(log);
        mixed.total_exposure += log.exposure;
    }
    const auto mixed_test = mixed.aggregate(types).heterogeneity();
    EXPECT_LT(mixed_test.p_value, 1e-6);
    EXPECT_GT(mixed_test.chi_squared / mixed_test.degrees_of_freedom,
              5.0 * same_dispersion);
}

TEST(Campaign, HeterogeneityRequiresAtLeastTwoFleets) {
    // A single fleet has no dispersion to test; the streaming store path
    // mirrors this exact contract (tests/store/aggregate_test.cpp).
    const auto result = run_campaign(small_campaign(1, 200.0));
    EXPECT_THROW((void)result.aggregate(IncidentTypeSet::paper_vru_example()).heterogeneity(),
                 std::invalid_argument);
}

TEST(Campaign, AllZeroIncidentCountsAreHomogeneous) {
    // Fleets that all observed nothing agree perfectly: chi^2 = 0, p = 1.
    CampaignResult result;
    for (int i = 0; i < 3; ++i) {
        IncidentLog log;
        log.exposure = ExposureHours(100.0);
        result.total_exposure += log.exposure;
        result.logs.push_back(log);
    }
    const auto aggregate = result.aggregate(IncidentTypeSet::paper_vru_example());
    const auto test = aggregate.heterogeneity();
    EXPECT_DOUBLE_EQ(test.chi_squared, 0.0);
    EXPECT_DOUBLE_EQ(test.p_value, 1.0);
    EXPECT_DOUBLE_EQ(test.pooled_rate, 0.0);
    EXPECT_DOUBLE_EQ(aggregate.pooled_incident_rate().per_hour_value(), 0.0);
}

TEST(Campaign, Validation) {
    EXPECT_THROW(run_campaign(small_campaign(0, 100.0)), std::invalid_argument);
    EXPECT_THROW(run_campaign(small_campaign(2, 0.0)), std::invalid_argument);
}

}  // namespace
}  // namespace qrn::sim
