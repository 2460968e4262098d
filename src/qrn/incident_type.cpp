#include "qrn/incident_type.h"

#include <stdexcept>
#include <unordered_set>

namespace qrn {

IncidentType::IncidentType(std::string id, ActorType counterparty,
                           ToleranceMargin margin, std::string description)
    : id_(std::move(id)),
      counterparty_(counterparty),
      margin_(margin),
      description_(std::move(description)) {
    if (id_.empty()) throw std::invalid_argument("IncidentType: id must be non-empty");
    if (counterparty_ == ActorType::EgoVehicle) {
        throw std::invalid_argument("IncidentType: counterparty cannot be EgoVehicle");
    }
}

IncidentType IncidentType::induced(std::string id, ActorType first, ActorType second,
                                   ToleranceMargin margin, std::string description) {
    if (first == ActorType::EgoVehicle || second == ActorType::EgoVehicle) {
        throw std::invalid_argument(
            "IncidentType::induced: induced incidents are between third parties");
    }
    IncidentType type(std::move(id), first, margin, std::move(description));
    type.second_party_ = second;
    type.induced_ = true;
    return type;
}

bool IncidentType::matches(const Incident& incident) const noexcept {
    if (induced_) {
        if (!incident.ego_causing_factor) return false;
        const bool pair_matches =
            (incident.first == counterparty_ && incident.second == second_party_) ||
            (incident.first == second_party_ && incident.second == counterparty_);
        return pair_matches && margin_.matches(incident);
    }
    if (!incident.involves_ego()) return false;
    const ActorType other =
        incident.first == ActorType::EgoVehicle ? incident.second : incident.first;
    if (other != counterparty_) return false;
    return margin_.matches(incident);
}

std::string IncidentType::interaction_text() const {
    if (induced_) {
        return std::string(to_string(counterparty_)) + "<->" +
               std::string(to_string(second_party_)) + " (induced), " +
               margin_.to_string();
    }
    return "Ego<->" + std::string(to_string(counterparty_)) + ", " + margin_.to_string();
}

IncidentTypeSet::IncidentTypeSet(std::vector<IncidentType> types)
    : types_(std::move(types)) {
    if (types_.empty()) {
        throw std::invalid_argument("IncidentTypeSet: needs at least one type");
    }
    std::unordered_set<std::string> ids;
    for (const auto& t : types_) {
        if (!ids.insert(t.id()).second) {
            throw std::invalid_argument("IncidentTypeSet: duplicate id " + t.id());
        }
    }
    // Structural mutual-exclusivity where provable: two types over the same
    // scope and actor set must have disjoint margins, otherwise one incident
    // would be double-counted against the risk norm.
    const auto same_actor_set = [](const IncidentType& a, const IncidentType& b) {
        if (a.is_induced() != b.is_induced()) return false;
        if (!a.is_induced()) return a.counterparty() == b.counterparty();
        return (a.counterparty() == b.counterparty() &&
                a.second_party() == b.second_party()) ||
               (a.counterparty() == b.second_party() &&
                a.second_party() == b.counterparty());
    };
    for (std::size_t i = 0; i < types_.size(); ++i) {
        for (std::size_t j = i + 1; j < types_.size(); ++j) {
            if (!same_actor_set(types_[i], types_[j])) continue;
            if (!types_[i].margin().disjoint_with(types_[j].margin())) {
                throw std::invalid_argument("IncidentTypeSet: overlapping margins for " +
                                            types_[i].id() + " and " + types_[j].id());
            }
        }
    }
}

const IncidentType& IncidentTypeSet::at(std::size_t index) const {
    if (index >= types_.size()) throw std::out_of_range("IncidentTypeSet::at: bad index");
    return types_[index];
}

std::optional<std::size_t> IncidentTypeSet::index_of(std::string_view id) const noexcept {
    for (std::size_t i = 0; i < types_.size(); ++i) {
        if (types_[i].id() == id) return i;
    }
    return std::nullopt;
}

std::optional<std::size_t> IncidentTypeSet::classify(
    const Incident& incident) const noexcept {
    for (std::size_t i = 0; i < types_.size(); ++i) {
        if (types_[i].matches(incident)) return i;
    }
    return std::nullopt;
}

std::size_t IncidentTypeSet::match_count(const Incident& incident) const noexcept {
    std::size_t n = 0;
    for (const auto& t : types_) {
        if (t.matches(incident)) ++n;
    }
    return n;
}

std::vector<std::uint64_t> count_matching_all(std::span<const Incident> incidents,
                                              const IncidentTypeSet& types) {
    const std::vector<IncidentType>& all = types.all();
    std::vector<std::uint64_t> counts(all.size(), 0);
    for (const Incident& incident : incidents) {
        for (std::size_t k = 0; k < all.size(); ++k) {
            if (all[k].matches(incident)) ++counts[k];
        }
    }
    return counts;
}

IncidentTypeSet IncidentTypeSet::paper_vru_example() {
    return IncidentTypeSet({
        IncidentType("I1", ActorType::Vru, ToleranceMargin::proximity(1.0, 10.0),
                     "Ego approaches VRU with > 10 km/h when closer than 1 m "
                     "(scary near miss, possible VRU emergency action)"),
        IncidentType("I2", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0),
                     "Collision with impact speed <= 10 km/h "
                     "(light or moderate injuries)"),
        IncidentType("I3", ActorType::Vru, ToleranceMargin::impact_speed(10.0, 70.0),
                     "Collision with impact speed 10-70 km/h "
                     "(up to life-threatening injuries)"),
    });
}

}  // namespace qrn
