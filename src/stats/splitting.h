// Multilevel splitting (subset simulation) estimator for rare tail
// probabilities.
//
// The QRN's binding budgets sit near 1e-9/h: naive Monte Carlo needs
// billions of simulated fleet hours to see one qualifying incident.
// Splitting factorises the rare event {S >= L_m} through a ladder of
// intermediate levels L_1 < L_2 < ... < L_m,
//
//     P(S >= L_m) = P(S >= L_1) * prod_{l=2}^{m} P(S >= L_l | S >= L_{l-1}),
//
// and estimates each conditional factor with a fixed-effort stage of N
// trials, cloning trajectories that survived the previous level. Each
// factor is an observable probability (ideally 0.05..0.5), so the product
// reaches 1e-9 with a few hundred trials per stage instead of 1e9 total.
//
// This header is the statistics half: it turns per-level tallies into a
// point estimate and a conservative confidence interval that composes with
// the existing Clopper-Pearson / Garwood machinery. The trajectory cloning
// lives in src/sim/splitting.h; keeping the estimator pure lets both the
// fleet driver and the closed-form validation workloads share it.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/rate_estimation.h"

namespace qrn::stats {

/// Outcome of one splitting stage: `trials` conditional simulations were
/// run given survival of the previous level, `successes` of them reached
/// this stage's level.
///
/// When the stage's trials are not independent - clones descending from
/// the same ancestor share inherited history - the driver additionally
/// reports a cluster-robust effective sample size: `effective_trials` is
/// the number of *independent* trials carrying the same information
/// (raw trials shrunk by the measured design effect), with
/// `effective_successes` scaled to preserve the observed fraction. Zero
/// `effective_trials` means "the trials are independent; use the raw
/// numbers". The confidence interval is computed from the effective
/// numbers; the point estimate always uses the raw (unbiased) fraction.
struct LevelTally {
    std::uint64_t trials = 0;
    std::uint64_t successes = 0;
    std::uint64_t effective_trials = 0;
    std::uint64_t effective_successes = 0;
};

/// Per-level detail retained in the estimate for reporting.
struct LevelEstimate {
    double threshold = 0.0;      ///< The level value (echoed from the caller).
    std::uint64_t trials = 0;    ///< Conditional trials run at this stage.
    std::uint64_t successes = 0; ///< Trials that reached the threshold.
    std::uint64_t effective_trials = 0;    ///< Trials the CI was computed from.
    std::uint64_t effective_successes = 0; ///< Successes the CI was computed from.
    double conditional = 0.0;    ///< successes / trials (0 when trials == 0).
    double lower = 0.0;          ///< Clopper-Pearson lower at the split confidence.
    double upper = 1.0;          ///< Clopper-Pearson upper at the split confidence.
};

/// Product estimate of the tail probability with a conservative two-sided
/// confidence interval.
struct SplittingEstimate {
    double point = 0.0;       ///< prod_l successes_l / trials_l.
    double lower = 0.0;       ///< Conservative lower confidence limit.
    double upper = 1.0;       ///< Conservative upper confidence limit.
    double confidence = 0.0;  ///< Overall two-sided coverage target.
    std::vector<LevelEstimate> levels;
};

/// Composes per-level tallies into a tail-probability estimate.
///
/// The interval is the product of per-level exact Clopper-Pearson
/// intervals, each taken at confidence 1 - (1 - confidence)/L (Bonferroni
/// split across the L levels). Because every level's interval covers its
/// conditional probability with error at most (1-confidence)/L, the union
/// bound makes the product interval cover the true product with error at
/// most 1-confidence - conservative, like Garwood itself.
///
/// A stage with trials == 0 (everything upstream died) contributes point
/// factor 0 and bounds [0, 1]: the data say nothing about that conditional
/// probability, so only the upper limit survives composition honestly.
///
/// `thresholds` must match `tallies` in size and is echoed into the
/// per-level detail; pass the level values the tallies were collected at.
/// Requires at least one level and confidence in (0, 1).
[[nodiscard]] SplittingEstimate splitting_estimate(
    const std::vector<LevelTally>& tallies, const std::vector<double>& thresholds,
    double confidence);

/// Converts a tail-probability estimate for a fixed-exposure trial into a
/// frequency interval: each trial covers `hours_per_trial` of operation,
/// and for rare events P(event in trial) ~= rate * hours_per_trial, so the
/// interval divides through by the exposure, giving a per-hour interval
/// comparable with the QRN's budgets. It does not feed an Eq. 1 verdict
/// (docs/RARE_EVENTS.md).
[[nodiscard]] RateInterval splitting_rate_interval(const SplittingEstimate& estimate,
                                                   double hours_per_trial);

}  // namespace qrn::stats
