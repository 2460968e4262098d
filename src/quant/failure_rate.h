// Failure-rate algebra for the quantitative assurance framework (Sec. V).
//
// The paper proposes replacing qualitative ASIL decomposition/inheritance
// with "traditional mathematical quantitative rules". This module provides
// those rules for violation frequencies of safety requirements:
//  - series (OR): any element violating violates the requirement -> rates add;
//  - parallel (AND): all redundant channels must fail within a common
//    detection/exposure window -> for small rates, lambda_and ~=
//    lambda_1 * lambda_2 * tau (one window), generalised to k-of-n;
//  - cause-agnostic budgets: systematic, random-hardware and performance-
//    limitation contributions draw from one budget.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "qrn/frequency.h"

namespace qrn::quant {

/// Cause categories unified under one budget (Sec. V: "one budget to be met
/// by all contributing causes, regardless whether they could be described
/// as systematic faults ...; or as random hardware faults; or as
/// 'performance limitations'").
enum class CauseCategory : std::uint8_t {
    SystematicDesign,       ///< Design faults in system/software/hardware.
    RandomHardware,         ///< Random hardware faults.
    PerformanceLimitation,  ///< Sensor/actuator performance limitations.
};

[[nodiscard]] std::string_view to_string(CauseCategory cause) noexcept;

/// Parallel combination (AND) of two independent channels with a common
/// exposure window tau (hours): the requirement is violated when both are
/// in a failed state simultaneously; for lambda*tau << 1 the resulting rate
/// is lambda1 * lambda2 * tau * 2 (either order of failure). Requires
/// tau > 0.
[[nodiscard]] Frequency parallel_rate(Frequency a, Frequency b, double tau_hours);

/// k-out-of-n good (i.e. violation when more than n-k channels are failed
/// within the window) for n identical independent channels of rate lambda.
/// Small-rate approximation: rate ~= C(n, n-k+1) * (n-k+1)! / (n-k+1) *
/// lambda^(n-k+1) * tau^(n-k) simplified via the standard formula
/// n! / (k-1)! / (n-k+1)! * (n-k+1) * lambda * (lambda*tau)^(n-k).
/// Requires 1 <= k <= n and tau > 0 (tau unused when k == n).
[[nodiscard]] Frequency k_of_n_rate(std::size_t k, std::size_t n, Frequency lambda,
                                    double tau_hours);

/// A cause-attributed contribution to one requirement's violation budget.
struct CauseContribution {
    CauseCategory cause = CauseCategory::SystematicDesign;
    Frequency rate;
};

}  // namespace qrn::quant
