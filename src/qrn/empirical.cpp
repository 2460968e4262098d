#include "qrn/empirical.h"

#include <stdexcept>

#include "exec/parallel.h"

namespace qrn {

namespace {

/// Quality/safety class indices of a norm in severity order.
struct ClassIndex {
    std::vector<std::size_t> quality;
    std::vector<std::size_t> safety;

    explicit ClassIndex(const RiskNorm& norm) {
        for (std::size_t j = 0; j < norm.size(); ++j) {
            (norm.classes().at(j).domain == ConsequenceDomain::Quality ? quality : safety)
                .push_back(j);
        }
    }
};

}  // namespace

std::optional<std::size_t> sample_consequence(const Incident& incident,
                                              const RiskNorm& norm,
                                              const InjuryRiskModel& model,
                                              const std::vector<double>& near_miss_profile,
                                              stats::Rng& rng) {
    const ClassIndex index(norm);
    if (incident.mechanism == IncidentMechanism::NearMiss) {
        if (near_miss_profile.size() > index.quality.size()) {
            throw std::invalid_argument(
                "sample_consequence: near-miss profile longer than quality class list");
        }
        double u = rng.uniform();
        for (std::size_t q = 0; q < near_miss_profile.size(); ++q) {
            if (u < near_miss_profile[q]) return index.quality[q];
            u -= near_miss_profile[q];
        }
        return std::nullopt;  // no consequence beyond the near miss itself
    }
    const ActorType counterparty =
        incident.first == ActorType::EgoVehicle ? incident.second : incident.first;
    const InjuryOutcome outcome =
        model.outcome(counterparty, incident.relative_speed_kmh);
    double u = rng.uniform();
    for (std::size_t g = 0; g < kInjuryGradeCount; ++g) {
        if (u >= outcome.probability[g]) {
            u -= outcome.probability[g];
            continue;
        }
        switch (static_cast<InjuryGrade>(g)) {
            case InjuryGrade::None:
                return std::nullopt;
            case InjuryGrade::MaterialDamage:
                return index.quality.empty() ? std::nullopt
                                             : std::optional(index.quality.back());
            case InjuryGrade::LightModerate:
            case InjuryGrade::Severe:
            case InjuryGrade::LifeThreatening: {
                if (index.safety.empty()) return std::nullopt;
                const std::size_t grade_offset =
                    g - static_cast<std::size_t>(InjuryGrade::LightModerate);
                const std::size_t j = std::min(grade_offset, index.safety.size() - 1);
                return index.safety[j];
            }
        }
    }
    return std::nullopt;  // numeric tail; treat as no consequence
}

std::vector<LabelledIncident> label_incidents(std::span<const Incident> incidents,
                                              const RiskNorm& norm,
                                              const InjuryRiskModel& model,
                                              const std::vector<double>& near_miss_profile,
                                              std::uint64_t seed, unsigned jobs) {
    return exec::parallel_map<LabelledIncident>(
        jobs, incidents.size(), [&](std::size_t i) {
            stats::Rng rng = stats::Rng::stream(seed, i);
            return LabelledIncident{
                incidents[i],
                sample_consequence(incidents[i], norm, model, near_miss_profile, rng)};
        });
}

ContributionMatrix ContributionCounts::point_matrix() const {
    return ContributionMatrix::from_counts(counts.size(), totals.size(), counts, totals);
}

ContributionCounts tally_contributions(std::span<const LabelledIncident> labelled,
                                       const IncidentTypeSet& types,
                                       std::size_t class_count) {
    if (class_count == 0) {
        throw std::invalid_argument("tally_contributions: class_count must be >= 1");
    }
    ContributionCounts out;
    out.counts.assign(class_count, std::vector<std::uint64_t>(types.size(), 0));
    out.totals.assign(types.size(), 0);
    for (const auto& item : labelled) {
        const auto type_index = types.classify(item.incident);
        if (!type_index) continue;
        ++out.totals[*type_index];
        if (item.class_index) {
            if (*item.class_index >= class_count) {
                throw std::invalid_argument("tally_contributions: label out of range");
            }
            ++out.counts[*item.class_index][*type_index];
        }
    }
    return out;
}

}  // namespace qrn
