// Interval estimation for proportions.
//
// Contribution fractions of the QRN (the share of an incident type's
// occurrences that land in each consequence class, e.g. the paper's
// "70% of f_I2 contributes to v_S1 and 30% to v_S2") are estimated from
// finite samples - accident databases or simulated incident logs. The
// safety argument needs conservative interval estimates for these shares,
// so we implement the exact interval from scratch.
#pragma once

#include <cstdint>

namespace qrn::stats {

/// A two-sided confidence interval on a proportion in [0, 1].
struct ProportionInterval {
    double lower = 0.0;
    double upper = 0.0;
    double point = 0.0;       ///< successes / trials.
    double confidence = 0.0;  ///< Two-sided coverage, e.g. 0.95.
};

/// Exact Clopper-Pearson interval via the regularized incomplete beta.
/// Conservative (coverage >= confidence for every true p).
[[nodiscard]] ProportionInterval clopper_pearson_interval(std::uint64_t successes,
                                                          std::uint64_t trials,
                                                          double confidence);

}  // namespace qrn::stats
