// Contribution matrices: how incident types distribute over consequence
// classes.
//
// "Each type of incident (I) will contribute to one or several of the
// consequence classes (v)" (Sec. III-B). The contribution matrix holds, for
// every incident type k and consequence class j, the fraction c[j][k] of
// type-k occurrences whose consequence lands in class j. Rows of the
// transpose (per-type fractions) may sum to less than 1: the remainder is
// the share of occurrences with no consequence in any class of the norm.
#pragma once

#include <cstddef>
#include <vector>

#include "qrn/incident_type.h"
#include "qrn/injury_risk.h"
#include "qrn/risk_norm.h"

namespace qrn {

/// Validated contribution fractions: classes x incident types.
class ContributionMatrix {
public:
    /// `fractions[j][k]` = share of type-k incidents landing in class j.
    /// Requires the matrix shape to match (classes x types), every entry in
    /// [0, 1], and every per-type column sum <= 1 (+ small tolerance).
    ContributionMatrix(std::size_t class_count, std::size_t type_count,
                       std::vector<std::vector<double>> fractions);

    [[nodiscard]] std::size_t class_count() const noexcept { return class_count_; }
    [[nodiscard]] std::size_t type_count() const noexcept { return type_count_; }

    /// Fraction of type-k incidents landing in class j.
    [[nodiscard]] double fraction(std::size_t class_index, std::size_t type_index) const;

    /// Sum over classes of type k's fractions (<= 1).
    [[nodiscard]] double column_sum(std::size_t type_index) const;

    /// True if incident type k contributes to class j at all.
    [[nodiscard]] bool contributes(std::size_t class_index, std::size_t type_index) const;

    /// Derives a matrix from the injury-risk model:
    ///  - collision types: band-average outcome distribution mapped onto the
    ///    norm's classes (material damage -> highest-severity quality class
    ///    when present, injury grades -> safety classes by rank order);
    ///  - near-miss types: routed to the quality classes via
    ///    `near_miss_profile` = fractions for (perceived safety, emergency
    ///    manoeuvre) style classes, matched by quality-class order.
    [[nodiscard]] static ContributionMatrix from_injury_model(
        const RiskNorm& norm, const IncidentTypeSet& types, const InjuryRiskModel& model,
        const std::vector<double>& near_miss_profile);

    /// Estimates a matrix empirically from labelled consequences: counts[j][k]
    /// = number of type-k incidents observed to land in class j, totals[k] =
    /// number of type-k incidents overall (>= column sums).
    [[nodiscard]] static ContributionMatrix from_counts(
        std::size_t class_count, std::size_t type_count,
        const std::vector<std::vector<std::uint64_t>>& counts,
        const std::vector<std::uint64_t>& totals);

private:
    std::size_t class_count_;
    std::size_t type_count_;
    std::vector<std::vector<double>> fractions_;  // [class][type]
};

}  // namespace qrn
