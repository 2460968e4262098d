// Calibrated toy trajectory models for the validation suite of
// sim::run_splitting (splitting_test.cpp). Each satisfies the Model
// concept in src/sim/splitting.h and has a closed-form tail, so the suite
// can pin unbiasedness, coverage and efficiency against exact truth. The
// shipped model is sim::FleetSeverityModel; these exist only for tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "stats/rng.h"

namespace qrn::sim {

/// Calibrated toy workload with a closed-form tail: a trajectory has
/// Poisson(lambda) episodes with iid Exp(1) severities, so
///
///     P(max severity >= t) = 1 - exp(-lambda * e^{-t}).
///
/// The validation suite pins the splitting estimator's unbiasedness,
/// coverage, and efficiency against this truth.
struct PoissonExpToyModel {
    double lambda = 4.0;

    struct Start {
        std::uint64_t episode_count = 0;
    };

    [[nodiscard]] Start begin(stats::Rng& rng) const {
        return Start{rng.poisson(lambda)};
    }
    [[nodiscard]] std::uint64_t episodes(const Start& start) const {
        return start.episode_count;
    }
    [[nodiscard]] double episode_severity(const Start&, std::uint64_t,
                                          stats::Rng& rng) const {
        return rng.exponential(1.0);
    }
    [[nodiscard]] double hours_per_trial() const { return 1.0; }

    /// Closed-form P(max severity >= t) for a trajectory.
    [[nodiscard]] double true_tail(double t) const {
        return -std::expm1(-lambda * std::exp(-t));
    }
};

/// Calibrated toy workload where splitting shines: the severity process is
/// a simple symmetric random walk (step +-1 per episode, `steps` episodes),
/// and the rare event is the walk's running maximum reaching a level. This
/// is a level-crossing problem - survivors of level L_l sit exactly at
/// L_l and regrow genuinely random futures - so the clone-and-prune ladder
/// multiplies observable conditional probabilities all the way down to
/// ~1e-8 tails. The closed-form truth comes from the reflection principle:
///
///     P(max_{e<=m} W_e >= l) = 2 P(W_m > l) + P(W_m = l),  integer l > 0.
///
/// Contrast with PoissonExpToyModel, whose severity maximum is driven by a
/// single heavy episode draw: there clones survive mostly by inheriting
/// their parent's overshoot, the worst case for splitting (see
/// docs/RARE_EVENTS.md). Keeping both calibrates the validation suite at
/// the two extremes.
struct RandomWalkToyModel {
    std::uint64_t steps = 100;

    struct Start {
        std::int64_t position = 0;  ///< Running walk state, advanced per episode.
    };

    [[nodiscard]] Start begin(stats::Rng&) const { return Start{}; }
    [[nodiscard]] std::uint64_t episodes(const Start&) const { return steps; }
    [[nodiscard]] double episode_severity(Start& start, std::uint64_t,
                                          stats::Rng& rng) const {
        start.position += rng.bernoulli(0.5) ? 1 : -1;
        return static_cast<double>(start.position);
    }
    [[nodiscard]] double hours_per_trial() const { return 1.0; }

    /// Closed-form P(running max >= level) via the reflection principle.
    /// `level` must be a positive integer value.
    [[nodiscard]] double true_tail(double level) const {
        const auto l = static_cast<std::int64_t>(level);
        if (static_cast<double>(l) != level || l <= 0) {
            throw std::invalid_argument(
                "RandomWalkToyModel::true_tail: level must be a positive integer");
        }
        const auto m = static_cast<std::int64_t>(steps);
        // W_m = 2*Bin(m, 1/2) - m, so W_m = w needs j = (m + w) / 2 up-steps
        // (zero probability when m + w is odd). log P(Bin = j) = lchoose(m, j)
        // - m log 2, summed from the smallest j with W >= level.
        const auto log_pmf = [m](std::int64_t j) {
            const double md = static_cast<double>(m);
            const double jd = static_cast<double>(j);
            return std::lgamma(md + 1.0) - std::lgamma(jd + 1.0) -
                   std::lgamma(md - jd + 1.0) - md * std::log(2.0);
        };
        // Reflection principle: P(max >= l) = 2 P(W_m > l) + P(W_m = l).
        double tail = 0.0;
        for (std::int64_t w = l; w <= m; ++w) {
            if ((m + w) % 2 != 0) continue;
            const double p = std::exp(log_pmf((m + w) / 2));
            tail += (w == l) ? p : 2.0 * p;
        }
        return std::min(tail, 1.0);
    }
};

}  // namespace qrn::sim
