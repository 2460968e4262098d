// Validation of the clone-and-prune splitting driver against the
// calibrated toy workload (closed-form tail) and the fleet severity model:
// unbiasedness, interval coverage, agreement with naive Monte Carlo,
// efficiency at a ~1e-8 tail, and bit-identity across jobs values.
#include "sim/splitting.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "splitting_toy_models.h"
#include "stats/proportion.h"
#include "stats/rate_estimation.h"

namespace qrn::sim {
namespace {

SplittingConfig toy_config(std::vector<double> levels, std::uint64_t trials,
                           std::uint64_t seed) {
    SplittingConfig config;
    config.levels = std::move(levels);
    config.trials_per_level = trials;
    config.confidence = 0.95;
    config.seed = seed;
    return config;
}

TEST(RunSplitting, Domain) {
    const PoissonExpToyModel model;
    EXPECT_THROW(run_splitting(model, toy_config({}, 100, 1)),
                 std::invalid_argument);
    EXPECT_THROW(run_splitting(model, toy_config({2.0, 2.0}, 100, 1)),
                 std::invalid_argument);
    EXPECT_THROW(run_splitting(model, toy_config({3.0, 2.0}, 100, 1)),
                 std::invalid_argument);
    EXPECT_THROW(run_splitting(model, toy_config({2.0}, 0, 1)),
                 std::invalid_argument);
}

TEST(RunSplitting, AccountsTrialsAndEpisodes) {
    const PoissonExpToyModel model;
    const SplittingResult result =
        run_splitting(model, toy_config({2.0, 4.0, 6.0}, 500, 7));
    EXPECT_EQ(result.total_trials, 1500u);
    EXPECT_DOUBLE_EQ(result.simulated_hours(), 1500.0);
    EXPECT_GT(result.fresh_episodes, 0u);
    // Stages past the first replay their parents' prefixes.
    EXPECT_GT(result.replayed_episodes, 0u);
    ASSERT_EQ(result.estimate.levels.size(), 3u);
    EXPECT_DOUBLE_EQ(result.estimate.levels[0].threshold, 2.0);
    EXPECT_EQ(result.estimate.levels[0].trials, 500u);
}

// The estimate at a directly observable tail must agree with the
// closed-form truth and with what the interval claims.
TEST(RunSplitting, CoversClosedFormTruth) {
    const PoissonExpToyModel model{4.0};
    const double t = 6.0;  // P ~ 4 * e^-6 ~ 9.87e-3
    const double truth = model.true_tail(t);
    const SplittingResult result =
        run_splitting(model, toy_config({2.0, 4.0, t}, 4000, 11));
    EXPECT_LE(result.estimate.lower, truth);
    EXPECT_GE(result.estimate.upper, truth);
    EXPECT_NEAR(result.estimate.point, truth, 0.35 * truth);
}

// Unbiasedness: the mean of independent splitting estimates must match
// the closed-form tail probability. 30 replicates at N=1500 put the
// standard error of the mean near 2.5% of truth; the 3-sigma band is a
// deterministic (fixed seeds) test of an unbiased estimator with
// overwhelming probability.
TEST(RunSplitting, UnbiasedAgainstClosedForm) {
    const PoissonExpToyModel model{4.0};
    const double t = 8.0;  // P ~ 1.34e-3
    const double truth = model.true_tail(t);
    constexpr int kReps = 30;
    double sum = 0.0, sum_sq = 0.0;
    for (int r = 0; r < kReps; ++r) {
        const SplittingResult result = run_splitting(
            model, toy_config({2.0, 4.0, 6.0, t}, 1500, 1000 + r));
        sum += result.estimate.point;
        sum_sq += result.estimate.point * result.estimate.point;
    }
    const double mean = sum / kReps;
    const double var = (sum_sq - sum * sum / kReps) / (kReps - 1);
    const double sem = std::sqrt(var / kReps);
    EXPECT_NEAR(mean, truth, 3.0 * sem + 1e-6 * truth)
        << "mean=" << mean << " truth=" << truth << " sem=" << sem;
}

// Coverage: across independent campaigns, the composed 95% interval must
// contain the truth at (at least) its conservative nominal rate. The walk
// model is the level-crossing regime splitting is designed for; the
// cluster-robust effective sample size keeps the interval honest about
// clone-ancestry correlation.
TEST(RunSplitting, IntervalCoverage) {
    const RandomWalkToyModel model;
    const double t = 32.0;
    const double truth = model.true_tail(t);  // 1.3318e-3
    constexpr int kReps = 60;
    int covered = 0;
    for (int r = 0; r < kReps; ++r) {
        const SplittingResult result = run_splitting(
            model, toy_config({8.0, 16.0, 24.0, t}, 800, 5000 + r));
        if (result.estimate.lower <= truth && truth <= result.estimate.upper) {
            ++covered;
        }
    }
    // Nominal 0.95 and Bonferroni over-covers; 60 reps stay above 0.85
    // with probability ~1 for a calibrated interval.
    EXPECT_GE(static_cast<double>(covered) / kReps, 0.85);
}

// Unbiasedness on the level-crossing workload as well: the walk model's
// survivors regrow genuine randomness, so this pins the estimator's mean
// in the regime the fleet campaigns resemble.
TEST(RunSplitting, WalkModelUnbiasedAgainstClosedForm) {
    const RandomWalkToyModel model;
    const double t = 32.0;
    const double truth = model.true_tail(t);
    constexpr int kReps = 25;
    double sum = 0.0, sum_sq = 0.0;
    for (int r = 0; r < kReps; ++r) {
        const SplittingResult result = run_splitting(
            model, toy_config({8.0, 16.0, 24.0, t}, 1000, 7000 + r));
        sum += result.estimate.point;
        sum_sq += result.estimate.point * result.estimate.point;
    }
    const double mean = sum / kReps;
    const double var = (sum_sq - sum * sum / kReps) / (kReps - 1);
    const double sem = std::sqrt(var / kReps);
    EXPECT_NEAR(mean, truth, 3.0 * sem + 1e-6 * truth)
        << "mean=" << mean << " truth=" << truth << " sem=" << sem;
}

// Agreement with naive MC at an observable frequency: the two estimators'
// 95% intervals for the same tail must overlap.
TEST(RunSplitting, AgreesWithNaiveMonteCarlo) {
    const PoissonExpToyModel model{4.0};
    const double t = 4.5;  // P ~ 4.3e-2: cheap for naive MC
    const SplittingResult split =
        run_splitting(model, toy_config({2.0, t}, 4000, 21));

    // Naive MC over the same trajectory distribution, from a disjoint
    // stream range of the same seed space.
    constexpr std::uint64_t kMcTrials = 20000;
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kMcTrials; ++i) {
        stats::Rng rng = stats::Rng::stream(99, i);
        const auto start = model.begin(rng);
        double max_severity = 0.0;
        for (std::uint64_t e = 0; e < model.episodes(start); ++e) {
            max_severity = std::max(max_severity,
                                    model.episode_severity(start, e, rng));
        }
        if (max_severity >= t) ++hits;
    }
    const stats::ProportionInterval mc =
        stats::clopper_pearson_interval(hits, kMcTrials, 0.95);
    EXPECT_LE(split.estimate.lower, mc.upper);
    EXPECT_GE(split.estimate.upper, mc.lower);
    EXPECT_NEAR(split.estimate.point, static_cast<double>(hits) / kMcTrials,
                0.3 * model.true_tail(t));
}

// The acceptance criterion: at a ~1e-8 tail the splitting campaign's
// upper bound must be reachable by naive MC only with >= 100x the
// simulated exposure (for MC even *one* campaign at matched CI width
// needs at least the zero-event exposure for the bound).
TEST(RunSplitting, HundredFoldCheaperThanNaiveMcAtRareTail) {
    const RandomWalkToyModel model;
    const double t = 56.0;
    const double truth = model.true_tail(t);  // 1.012e-8
    ASSERT_GT(truth, 5e-9);
    ASSERT_LT(truth, 5e-8);
    SplittingConfig config;
    config.levels = {8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0,
                     36.0, 40.0, 44.0, 48.0, 52.0, t};
    config.trials_per_level = 2000;
    config.confidence = 0.95;
    config.seed = 31;
    const SplittingResult result = run_splitting(model, config);
    // The interval must actually localise the 1e-8 tail.
    EXPECT_LE(result.estimate.lower, truth);
    EXPECT_GE(result.estimate.upper, truth);
    EXPECT_LT(result.estimate.upper, 1e-6);
    EXPECT_GT(result.estimate.lower, 0.0);
    // Exposure naive MC would need for its upper bound just to reach ours
    // (zero events observed - the cheapest possible outcome), vs what the
    // splitting campaign actually simulated.
    const double mc_hours_needed = stats::exposure_needed_for_zero_events(
        result.estimate.upper / result.hours_per_trial, config.confidence);
    EXPECT_GE(mc_hours_needed / result.simulated_hours(), 100.0)
        << "upper=" << result.estimate.upper
        << " simulated_hours=" << result.simulated_hours();
}

// The reflection-principle closed form itself, pinned against direct
// naive MC at an easily observable level.
TEST(RandomWalkToyModel, ClosedFormMatchesDirectMonteCarlo) {
    const RandomWalkToyModel model;
    constexpr std::uint64_t kTrials = 50000;
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < kTrials; ++i) {
        stats::Rng rng = stats::Rng::stream(5, i);
        RandomWalkToyModel::Start start{};
        double max_severity = 0.0;
        for (std::uint64_t e = 0; e < model.episodes(start); ++e) {
            max_severity =
                std::max(max_severity, model.episode_severity(start, e, rng));
        }
        if (max_severity >= 8.0) ++hits;
    }
    const stats::ProportionInterval mc =
        stats::clopper_pearson_interval(hits, kTrials, 0.999);
    const double truth = model.true_tail(8.0);
    EXPECT_GE(truth, mc.lower);
    EXPECT_LE(truth, mc.upper);
    EXPECT_THROW(model.true_tail(2.5), std::invalid_argument);
    EXPECT_THROW(model.true_tail(0.0), std::invalid_argument);
}

// Determinism: the full campaign result must be bit-identical at every
// jobs value, on the toy model and on the fleet severity model.
TEST(RunSplitting, BitIdenticalAcrossJobs) {
    const PoissonExpToyModel model{4.0};
    const SplittingConfig config = toy_config({2.0, 4.0, 6.0, 8.0}, 600, 17);
    const SplittingResult baseline = run_splitting(model, config, 1);
    for (unsigned jobs : {2u, 7u, 8u}) {
        const SplittingResult result = run_splitting(model, config, jobs);
        EXPECT_EQ(baseline.estimate.point, result.estimate.point) << jobs;
        EXPECT_EQ(baseline.estimate.lower, result.estimate.lower) << jobs;
        EXPECT_EQ(baseline.estimate.upper, result.estimate.upper) << jobs;
        EXPECT_EQ(baseline.total_trials, result.total_trials) << jobs;
        EXPECT_EQ(baseline.fresh_episodes, result.fresh_episodes) << jobs;
        EXPECT_EQ(baseline.replayed_episodes, result.replayed_episodes) << jobs;
        ASSERT_EQ(baseline.estimate.levels.size(), result.estimate.levels.size());
        for (std::size_t l = 0; l < baseline.estimate.levels.size(); ++l) {
            EXPECT_EQ(baseline.estimate.levels[l].successes,
                      result.estimate.levels[l].successes)
                << "jobs=" << jobs << " level=" << l;
        }
    }
}

TEST(RunSplitting, FleetModelBitIdenticalAcrossJobs) {
    FleetConfig fleet;
    fleet.seed = 4242;
    const FleetSeverityModel model(fleet);
    SplittingConfig config;
    config.levels = {40.0, 120.0, 210.0};
    config.trials_per_level = 300;
    config.seed = 4242;
    const SplittingResult baseline = run_splitting(model, config, 1);
    EXPECT_EQ(baseline.total_trials, 900u);
    for (unsigned jobs : {2u, 7u, 8u}) {
        const SplittingResult result = run_splitting(model, config, jobs);
        EXPECT_EQ(baseline.estimate.point, result.estimate.point) << jobs;
        EXPECT_EQ(baseline.estimate.upper, result.estimate.upper) << jobs;
        EXPECT_EQ(baseline.fresh_episodes, result.fresh_episodes) << jobs;
        EXPECT_EQ(baseline.replayed_episodes, result.replayed_episodes) << jobs;
    }
}

// The fleet severity model must reproduce the severity scale the fleet
// simulator's own encounters generate: collisions score above 200, all
// severities are finite and non-negative.
TEST(FleetSeverityModel, SeverityScale) {
    EncounterOutcome collision;
    collision.collision = true;
    collision.impact_speed_kmh = 33.0;
    EXPECT_DOUBLE_EQ(encounter_severity(collision), 233.0);
    EncounterOutcome miss;
    miss.collision = false;
    miss.closing_speed_kmh = 45.0;
    miss.min_gap_m = 2.0;
    EXPECT_DOUBLE_EQ(encounter_severity(miss), 25.0);
    EncounterOutcome wide_miss;
    wide_miss.closing_speed_kmh = 5.0;
    wide_miss.min_gap_m = 10.0;
    EXPECT_DOUBLE_EQ(encounter_severity(wide_miss), 0.0);
}

TEST(FleetSeverityModel, TrajectoriesReplayDeterministically) {
    FleetConfig fleet;
    fleet.seed = 7;
    const FleetSeverityModel model(fleet);
    // Same stream -> same start and same episode severities, twice over.
    for (std::uint64_t stream : {kSplittingStreamBase, kSplittingStreamBase + 5}) {
        stats::Rng rng_a = stats::Rng::stream(7, stream);
        stats::Rng rng_b = stats::Rng::stream(7, stream);
        const auto start_a = model.begin(rng_a);
        const auto start_b = model.begin(rng_b);
        ASSERT_EQ(start_a.total, start_b.total);
        for (std::uint64_t e = 0; e < model.episodes(start_a); ++e) {
            EXPECT_EQ(model.episode_severity(start_a, e, rng_a),
                      model.episode_severity(start_b, e, rng_b));
        }
    }
}

TEST(FleetSeverityModel, EpisodeIndexOutOfRangeThrows) {
    FleetConfig fleet;
    const FleetSeverityModel model(fleet);
    stats::Rng rng = stats::Rng::stream(1, kSplittingStreamBase);
    const auto start = model.begin(rng);
    EXPECT_THROW(model.episode_severity(start, start.total, rng),
                 std::out_of_range);
}

}  // namespace
}  // namespace qrn::sim
