// Verification of the quantitative risk norm against observed evidence.
//
// Eq. 1 of the paper:  sum_k f_{v_j, I_k} <= f_{v_j}^{acceptable}  for all j.
//
// At design time the check runs against allocated budgets (see
// allocation.h). This module runs it against *evidence*: incident counts
// over operational exposure, per incident type. Because a safety argument
// cannot rest on point estimates from small counts, each per-type rate is
// lifted to a one-sided upper confidence bound (exact Poisson, see
// stats/rate_estimation.h) before being pushed through the contribution
// matrix; a class passes with statistical confidence only when even the
// upper-bounded usage stays within its limit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qrn/allocation.h"
#include "qrn/frequency.h"
#include "stats/rate_estimation.h"

namespace qrn {

/// Observed evidence for one incident type: events over exposure.
struct TypeEvidence {
    std::string incident_type_id;
    std::uint64_t events = 0;
    ExposureHours exposure;
};

/// Verdict for one consequence class.
enum class ClassVerdict {
    Fulfilled,       ///< Upper-bounded usage within the limit.
    PointFulfilled,  ///< Point estimate within the limit but the upper
                     ///< confidence bound exceeds it: more exposure needed.
    Violated,        ///< Even the point estimate exceeds the limit.
};

[[nodiscard]] std::string_view to_string(ClassVerdict verdict) noexcept;

/// Per-class verification row.
struct ClassVerification {
    std::string class_id;
    Frequency limit;
    Frequency point_usage;   ///< Sum of MLE rates through the matrix.
    Frequency upper_usage;   ///< Sum of upper confidence bounds.
    ClassVerdict verdict = ClassVerdict::Violated;
};

/// Per-incident-type verification row (against the allocated SG budget).
struct GoalVerification {
    std::string incident_type_id;
    Frequency budget;        ///< Allocated f_I (the SG integrity attribute).
    Frequency point_rate;    ///< Observed MLE rate.
    Frequency upper_rate;    ///< One-sided upper confidence bound.
    ClassVerdict verdict = ClassVerdict::Violated;
};

/// Full verification report.
struct VerificationReport {
    double confidence = 0.0;
    std::vector<GoalVerification> goals;
    std::vector<ClassVerification> classes;

    /// True iff every class verdict is Fulfilled.
    [[nodiscard]] bool norm_fulfilled() const noexcept;
    /// True iff every class verdict is at least PointFulfilled.
    [[nodiscard]] bool norm_point_fulfilled() const noexcept;
};

/// Runs Eq. 1 against evidence.
///
/// `evidence` must contain exactly one entry per incident type of the
/// problem (matched by id; order free). `allocation` provides the SG
/// budgets for the per-goal rows. `confidence` is the one-sided level used
/// for the upper bounds, e.g. 0.95.
[[nodiscard]] VerificationReport verify_against_evidence(
    const AllocationProblem& problem, const Allocation& allocation,
    const std::vector<TypeEvidence>& evidence, double confidence);

/// Convenience: exposure (hours) required to statistically demonstrate a
/// budget assuming zero observed events of the type (the dominant
/// verification-effort driver for severe classes).
[[nodiscard]] ExposureHours exposure_to_demonstrate(Frequency budget, double confidence);

}  // namespace qrn
