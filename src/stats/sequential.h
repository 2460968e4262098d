// Sequential testing of incident rates (Wald SPRT for Poisson processes).
//
// Fixed-exposure verification (rate_estimation.h) answers "did T hours of
// evidence demonstrate the budget?". Fleet operation is better served by
// the sequential question: *as evidence accumulates*, accept the budget as
// met, reject it, or keep monitoring - with controlled error rates and, on
// average, far less exposure than the fixed-horizon test. This is the
// classical Wald SPRT for a Poisson process: H0 rate lambda0 (acceptably
// low) vs H1 rate lambda1 > lambda0 (unacceptable), log-likelihood ratio
// after k events in t hours:
//   LLR = k ln(lambda1/lambda0) - (lambda1 - lambda0) t.
#pragma once

#include <cstdint>
#include <string_view>

namespace qrn::stats {

/// Outcome of a sequential test at some point of observation.
enum class SprtDecision : std::uint8_t {
    Continue,   ///< Not enough evidence either way.
    AcceptH0,   ///< The low rate is accepted (budget demonstrated).
    RejectH0,   ///< The high rate is accepted (budget violated).
};

[[nodiscard]] std::string_view to_string(SprtDecision decision) noexcept;

/// A running Wald SPRT for a Poisson rate.
class PoissonSprt {
public:
    /// H0: rate <= lambda0; H1: rate >= lambda1. Requires
    /// 0 < lambda0 < lambda1, and error rates alpha (false rejection of H0)
    /// and beta (false acceptance) in (0, 0.5).
    PoissonSprt(double lambda0, double lambda1, double alpha, double beta);

    /// Feeds additional exposure with `events` occurrences in it.
    void observe(std::uint64_t events, double hours);

    /// The decision at the current state (boundaries by Wald's
    /// approximation: A = ln((1-beta)/alpha), B = ln(beta/(1-alpha))).
    [[nodiscard]] SprtDecision decision() const noexcept;

    [[nodiscard]] double log_likelihood_ratio() const noexcept { return llr_; }
    [[nodiscard]] std::uint64_t events() const noexcept { return events_; }
    [[nodiscard]] double hours() const noexcept { return hours_; }

private:
    double lambda0_;
    double lambda1_;
    double upper_;  ///< ln((1-beta)/alpha): crossing rejects H0.
    double lower_;  ///< ln(beta/(1-alpha)): crossing accepts H0.
    double llr_ = 0.0;
    std::uint64_t events_ = 0;
    double hours_ = 0.0;
};

}  // namespace qrn::stats
