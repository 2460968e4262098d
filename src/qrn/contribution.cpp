#include "qrn/contribution.h"

#include <cmath>
#include <stdexcept>

namespace qrn {

namespace {

constexpr double kSumTolerance = 1e-9;

}  // namespace

ContributionMatrix::ContributionMatrix(std::size_t class_count, std::size_t type_count,
                                       std::vector<std::vector<double>> fractions)
    : class_count_(class_count), type_count_(type_count), fractions_(std::move(fractions)) {
    if (class_count_ == 0 || type_count_ == 0) {
        throw std::invalid_argument("ContributionMatrix: empty dimensions");
    }
    if (fractions_.size() != class_count_) {
        throw std::invalid_argument("ContributionMatrix: row count != class count");
    }
    for (const auto& row : fractions_) {
        if (row.size() != type_count_) {
            throw std::invalid_argument("ContributionMatrix: row width != type count");
        }
        for (double f : row) {
            if (!std::isfinite(f) || f < 0.0 || f > 1.0) {
                throw std::invalid_argument("ContributionMatrix: fraction outside [0,1]");
            }
        }
    }
    for (std::size_t k = 0; k < type_count_; ++k) {
        if (column_sum(k) > 1.0 + kSumTolerance) {
            throw std::invalid_argument(
                "ContributionMatrix: per-type fractions sum above 1");
        }
    }
}

double ContributionMatrix::fraction(std::size_t class_index,
                                    std::size_t type_index) const {
    if (class_index >= class_count_ || type_index >= type_count_) {
        throw std::out_of_range("ContributionMatrix::fraction: bad index");
    }
    return fractions_[class_index][type_index];
}

double ContributionMatrix::column_sum(std::size_t type_index) const {
    if (type_index >= type_count_) {
        throw std::out_of_range("ContributionMatrix::column_sum: bad index");
    }
    double sum = 0.0;
    for (std::size_t j = 0; j < class_count_; ++j) sum += fractions_[j][type_index];
    return sum;
}

bool ContributionMatrix::contributes(std::size_t class_index,
                                     std::size_t type_index) const {
    return fraction(class_index, type_index) > 0.0;
}

ContributionMatrix ContributionMatrix::from_injury_model(
    const RiskNorm& norm, const IncidentTypeSet& types, const InjuryRiskModel& model,
    const std::vector<double>& near_miss_profile) {
    const std::size_t classes = norm.size();
    const std::size_t n_types = types.size();

    // Locate the norm's quality and safety classes in severity order.
    std::vector<std::size_t> quality_idx, safety_idx;
    for (std::size_t j = 0; j < classes; ++j) {
        (norm.classes().at(j).domain == ConsequenceDomain::Quality ? quality_idx
                                                                   : safety_idx)
            .push_back(j);
    }
    if (near_miss_profile.size() > quality_idx.size()) {
        throw std::invalid_argument(
            "from_injury_model: near-miss profile longer than quality class list");
    }

    std::vector<std::vector<double>> fractions(classes, std::vector<double>(n_types, 0.0));
    for (std::size_t k = 0; k < n_types; ++k) {
        const IncidentType& t = types.at(k);
        if (t.margin().mechanism() == IncidentMechanism::NearMiss) {
            for (std::size_t q = 0; q < near_miss_profile.size(); ++q) {
                fractions[quality_idx[q]][k] = near_miss_profile[q];
            }
            continue;
        }
        const auto& band = t.margin().impact_band();
        const double upper = std::isinf(band.upper_kmh)
                                 ? band.lower_kmh + 200.0  // practical tail cut-off
                                 : band.upper_kmh;
        const InjuryOutcome avg =
            model.band_average(t.counterparty(), band.lower_kmh, upper);
        // Material damage -> most severe quality class (vQ3 in the paper's
        // example) when the norm has quality classes at all.
        if (!quality_idx.empty()) {
            fractions[quality_idx.back()][k] = avg.at(InjuryGrade::MaterialDamage);
        }
        // Injury grades -> safety classes in rank order. If the norm has
        // fewer safety classes than grades, the worst grades collapse into
        // the most severe class (conservative).
        const InjuryGrade grades[] = {InjuryGrade::LightModerate, InjuryGrade::Severe,
                                      InjuryGrade::LifeThreatening};
        for (std::size_t g = 0; g < 3; ++g) {
            if (safety_idx.empty()) break;
            const std::size_t j = safety_idx[std::min(g, safety_idx.size() - 1)];
            fractions[j][k] += avg.at(grades[g]);
        }
    }
    return ContributionMatrix(classes, n_types, std::move(fractions));
}

ContributionMatrix ContributionMatrix::from_counts(
    std::size_t class_count, std::size_t type_count,
    const std::vector<std::vector<std::uint64_t>>& counts,
    const std::vector<std::uint64_t>& totals) {
    if (counts.size() != class_count || totals.size() != type_count) {
        throw std::invalid_argument("from_counts: shape mismatch");
    }
    std::vector<std::vector<double>> fractions(class_count,
                                               std::vector<double>(type_count, 0.0));
    for (std::size_t k = 0; k < type_count; ++k) {
        std::uint64_t classified = 0;
        for (std::size_t j = 0; j < class_count; ++j) {
            if (counts[j].size() != type_count) {
                throw std::invalid_argument("from_counts: row width mismatch");
            }
            classified += counts[j][k];
        }
        if (classified > totals[k]) {
            throw std::invalid_argument(
                "from_counts: classified incidents exceed the type total");
        }
        if (totals[k] == 0) continue;  // no evidence -> zero contributions
        for (std::size_t j = 0; j < class_count; ++j) {
            fractions[j][k] =
                static_cast<double>(counts[j][k]) / static_cast<double>(totals[k]);
        }
    }
    return ContributionMatrix(class_count, type_count, std::move(fractions));
}

}  // namespace qrn
