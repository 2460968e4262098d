#include "stats/splitting.h"

#include <cmath>
#include <stdexcept>

#include "stats/proportion.h"

namespace qrn::stats {

SplittingEstimate splitting_estimate(const std::vector<LevelTally>& tallies,
                                     const std::vector<double>& thresholds,
                                     double confidence) {
    if (tallies.empty()) {
        throw std::invalid_argument("splitting_estimate: needs >= 1 level");
    }
    if (thresholds.size() != tallies.size()) {
        throw std::invalid_argument(
            "splitting_estimate: thresholds/tallies size mismatch");
    }
    if (confidence <= 0.0 || confidence >= 1.0) {
        throw std::invalid_argument("splitting_estimate: confidence in (0, 1)");
    }
    const double alpha = 1.0 - confidence;
    const std::size_t num_levels = tallies.size();
    // Bonferroni: each level gets error budget alpha / L.
    const double level_confidence = 1.0 - alpha / static_cast<double>(num_levels);

    SplittingEstimate out;
    out.confidence = confidence;
    out.point = 1.0;
    out.lower = 1.0;
    out.upper = 1.0;
    out.levels.reserve(num_levels);
    for (std::size_t l = 0; l < num_levels; ++l) {
        const LevelTally& tally = tallies[l];
        if (tally.successes > tally.trials) {
            throw std::invalid_argument("splitting_estimate: successes > trials");
        }
        const std::uint64_t ci_trials =
            tally.effective_trials != 0 ? tally.effective_trials : tally.trials;
        const std::uint64_t ci_successes = tally.effective_trials != 0
                                               ? tally.effective_successes
                                               : tally.successes;
        if (ci_successes > ci_trials) {
            throw std::invalid_argument(
                "splitting_estimate: effective successes > effective trials");
        }
        LevelEstimate level;
        level.threshold = thresholds[l];
        level.trials = tally.trials;
        level.successes = tally.successes;
        level.effective_trials = ci_trials;
        level.effective_successes = ci_successes;
        if (tally.trials == 0) {
            // Nothing survived to this stage: the conditional probability is
            // completely unobserved. Point factor 0 (the campaign saw no path
            // to this level), bounds [0, 1].
            level.conditional = 0.0;
            level.lower = 0.0;
            level.upper = 1.0;
            level.effective_trials = 0;
            level.effective_successes = 0;
        } else {
            // Point estimate from the raw (unbiased) fraction; interval from
            // the effective numbers, which absorb any clone-ancestry design
            // effect the driver measured.
            const ProportionInterval ci = clopper_pearson_interval(
                ci_successes, ci_trials, level_confidence);
            level.conditional = static_cast<double>(tally.successes) /
                                static_cast<double>(tally.trials);
            level.lower = ci.lower;
            level.upper = ci.upper;
        }
        out.point *= level.conditional;
        out.lower *= level.lower;
        out.upper *= level.upper;
        out.levels.push_back(level);
    }
    return out;
}

RateInterval splitting_rate_interval(const SplittingEstimate& estimate,
                                     double hours_per_trial) {
    if (hours_per_trial <= 0.0) {
        throw std::invalid_argument(
            "splitting_rate_interval: hours_per_trial must be > 0");
    }
    RateInterval out;
    out.point = estimate.point / hours_per_trial;
    out.lower = estimate.lower / hours_per_trial;
    out.upper = estimate.upper / hours_per_trial;
    out.confidence = estimate.confidence;
    return out;
}

}  // namespace qrn::stats
