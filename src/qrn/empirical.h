// Empirical contribution estimation from labelled incident data.
//
// The paper grounds contribution fractions in accident data: "this is a
// topic where much data and domain knowledge is available, e.g. from
// research and national traffic analysis databases" (Sec. III-B). This
// module plays the role of such a database for the simulated world: each
// recorded incident is labelled with a concrete consequence (sampled from
// the injury-risk model for collisions, from an authored profile for near
// misses), and the per-type consequence-class fractions are estimated from
// the resulting counts.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "qrn/contribution.h"
#include "qrn/incident.h"
#include "qrn/incident_type.h"
#include "qrn/injury_risk.h"
#include "qrn/risk_norm.h"
#include "stats/rng.h"

namespace qrn {

/// A labelled incident: which consequence class (if any) it landed in.
struct LabelledIncident {
    Incident incident;
    std::optional<std::size_t> class_index;  ///< Index into the norm's classes.
};

/// Samples a concrete consequence for one incident:
///  - collisions: an injury grade from the model's outcome distribution,
///    mapped onto the norm's classes (material damage -> most severe
///    quality class, injury grades -> safety classes in rank order);
///  - near misses: one of the quality classes per `near_miss_profile`
///    (fractions over the quality classes in order; remainder = none).
/// Returns nullopt when the sampled consequence falls outside every class.
[[nodiscard]] std::optional<std::size_t> sample_consequence(
    const Incident& incident, const RiskNorm& norm, const InjuryRiskModel& model,
    const std::vector<double>& near_miss_profile, stats::Rng& rng);

/// Labels a whole incident log with incident i drawn from its own RNG
/// stream stats::Rng::stream(seed, i). With jobs > 1 the incidents are
/// labelled in parallel chunks; the result is bit-identical for every
/// jobs value.
[[nodiscard]] std::vector<LabelledIncident> label_incidents(
    std::span<const Incident> incidents, const RiskNorm& norm,
    const InjuryRiskModel& model, const std::vector<double>& near_miss_profile,
    std::uint64_t seed, unsigned jobs);

/// Count data underlying an empirical contribution estimate.
struct ContributionCounts {
    /// counts[class][type]: labelled incidents of the type landing in the class.
    std::vector<std::vector<std::uint64_t>> counts;
    /// totals[type]: incidents matching the type (labelled or not).
    std::vector<std::uint64_t> totals;

    /// The point-estimate matrix (see ContributionMatrix::from_counts).
    [[nodiscard]] ContributionMatrix point_matrix() const;
};

/// Tallies labelled incidents against an incident-type catalog.
[[nodiscard]] ContributionCounts tally_contributions(
    std::span<const LabelledIncident> labelled, const IncidentTypeSet& types,
    std::size_t class_count);

}  // namespace qrn
