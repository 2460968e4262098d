// Incident types: the partitions of the incident space that become
// safety goals.
//
// Sec. III-B defines each incident type I as an interaction between the ego
// vehicle and an <object_type> within a <tolerance_margin>, chosen so that
// (a) its contribution to each consequence class can be shown, and (b) it
// provides meaningful input to refined safety requirements. The paper's
// running example (Fig. 5): I1 = Ego<->VRU near miss (d < 1 m, dv > 10
// km/h); I2 = Ego<->VRU collision 0 < dv <= 10 km/h; I3 = Ego<->VRU
// collision 10 < dv <= 70 km/h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "qrn/incident.h"
#include "qrn/tolerance_margin.h"

namespace qrn {

/// One incident type (I_k in the paper).
///
/// Two scopes exist, mirroring the two halves of Fig. 4:
///  - ego-involved (the constructor): an interaction between the ego
///    vehicle and a counterparty within the tolerance margin;
///  - induced (the `induced` factory): an incident between two third-party
///    actors for which ego was a causing factor - the paper notes these
///    "may be more difficult to clearly define" but belong to the budget.
class IncidentType {
public:
    /// Ego-involved type. Requires a non-empty id and a counterparty that
    /// is not EgoVehicle (ego-to-ego is not a meaningful interaction).
    IncidentType(std::string id, ActorType counterparty, ToleranceMargin margin,
                 std::string description = {});

    /// Induced type: matches incidents between the unordered actor pair
    /// {first, second} (neither may be EgoVehicle) where ego was a causing
    /// factor, within the margin.
    [[nodiscard]] static IncidentType induced(std::string id, ActorType first,
                                              ActorType second, ToleranceMargin margin,
                                              std::string description = {});

    [[nodiscard]] const std::string& id() const noexcept { return id_; }
    [[nodiscard]] bool is_induced() const noexcept { return induced_; }
    /// Ego-involved types: the non-ego party. Induced types: the first of
    /// the pair (see `second_party`).
    [[nodiscard]] ActorType counterparty() const noexcept { return counterparty_; }
    /// Induced types: the other actor of the pair. Ego-involved types:
    /// EgoVehicle.
    [[nodiscard]] ActorType second_party() const noexcept { return second_party_; }
    [[nodiscard]] const ToleranceMargin& margin() const noexcept { return margin_; }
    [[nodiscard]] const std::string& description() const noexcept { return description_; }

    /// True iff the incident falls in this type's scope, actor set and
    /// tolerance margin.
    [[nodiscard]] bool matches(const Incident& incident) const noexcept;

    /// "Ego<->VRU, 0 < dv <= 10 km/h" or "Car<->VRU (induced), ..." -
    /// the phrase used inside SG text.
    [[nodiscard]] std::string interaction_text() const;

private:
    std::string id_;
    ActorType counterparty_;
    ActorType second_party_ = ActorType::EgoVehicle;
    bool induced_ = false;
    ToleranceMargin margin_;
    std::string description_;
};

/// A validated collection of incident types (unique ids; pairwise-disjoint
/// matching is checked statistically by the MECE machinery, and
/// structurally where margins allow).
class IncidentTypeSet {
public:
    explicit IncidentTypeSet(std::vector<IncidentType> types);

    [[nodiscard]] std::size_t size() const noexcept { return types_.size(); }
    [[nodiscard]] const IncidentType& at(std::size_t index) const;
    [[nodiscard]] const std::vector<IncidentType>& all() const noexcept { return types_; }
    [[nodiscard]] std::optional<std::size_t> index_of(std::string_view id) const noexcept;

    /// Index of the first type matching the incident, if any.
    [[nodiscard]] std::optional<std::size_t> classify(const Incident& incident) const noexcept;

    /// Number of types matching the incident (MECE requires <= 1 among
    /// same-counterparty types; used by tests and the MECE certificate).
    [[nodiscard]] std::size_t match_count(const Incident& incident) const noexcept;

    /// The paper's Fig. 5 example set {I1, I2, I3} for Ego<->VRU.
    [[nodiscard]] static IncidentTypeSet paper_vru_example();

private:
    std::vector<IncidentType> types_;
};

/// Every per-type match count in one pass over the incidents: index k of
/// the result counts the incidents matching types.at(k). Each record is
/// read once however many types the norm carries.
[[nodiscard]] std::vector<std::uint64_t> count_matching_all(
    std::span<const Incident> incidents, const IncidentTypeSet& types);

}  // namespace qrn
