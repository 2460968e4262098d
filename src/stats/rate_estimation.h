// Poisson rate estimation with exact confidence intervals.
//
// Incident-frequency evidence in the QRN safety case is of the form "k
// incidents observed over T operational hours". The point estimate k/T is
// not enough for a safety argument: the paper's Eq. 1 check must hold for a
// defensible *upper bound* on the rate: the exact one-sided Garwood bound
// (chi-squared based, valid for k = 0) that the verification module uses.
#pragma once

#include <cstdint>
#include <vector>

namespace qrn::stats {

/// Raw counting evidence: k events observed during an exposure of T hours.
struct RateObservation {
    std::uint64_t events = 0;
    double exposure_hours = 0.0;
};

/// A two-sided confidence interval on a Poisson rate (events per hour).
struct RateInterval {
    double lower = 0.0;        ///< Lower confidence limit (per hour).
    double upper = 0.0;        ///< Upper confidence limit (per hour).
    double point = 0.0;        ///< Maximum-likelihood estimate k/T.
    double confidence = 0.0;   ///< Two-sided coverage, e.g. 0.95.
};

/// Maximum-likelihood rate estimate k / T. Requires exposure_hours > 0.
[[nodiscard]] double rate_mle(const RateObservation& obs);

/// Exact one-sided upper confidence bound: the largest rate lambda such
/// that observing <= k events in T hours has probability >= 1 - confidence.
/// This is the bound the QRN verification uses for Eq. 1. For k = 0 it is
/// -ln(1 - confidence) / T (e.g. ~3/T for 95%: the "rule of three").
[[nodiscard]] double rate_upper_bound(const RateObservation& obs, double confidence);

/// Exposure hours needed so that, if zero events are observed, the upper
/// `confidence` bound on the rate drops below `target_rate` (per hour).
/// This quantifies the paper's verification-effort trade-off.
[[nodiscard]] double exposure_needed_for_zero_events(double target_rate,
                                                     double confidence);

/// Result of the multi-sample rate homogeneity test.
struct HeterogeneityResult {
    double chi_squared = 0.0;
    double degrees_of_freedom = 0.0;
    double p_value = 1.0;      ///< Small => the samples' true rates differ.
    double pooled_rate = 0.0;  ///< Total events / total exposure.
};

/// Chi-squared homogeneity test across several Poisson observations (e.g.
/// the fleets of a campaign): under a common true rate, X^2 = sum (k_i -
/// T_i r)^2 / (T_i r) is ~ chi^2 with n-1 degrees of freedom. A small
/// p-value flags overdispersion - the fleets are not observing the same
/// process (mixed ODDs, different software versions, seasonal effects) and
/// pooling their evidence would be misleading. Requires >= 2 observations
/// with positive exposure. All-zero counts yield p = 1.
[[nodiscard]] HeterogeneityResult rate_heterogeneity_test(
    const std::vector<RateObservation>& observations);

}  // namespace qrn::stats
