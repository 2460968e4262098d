#include "qrn/severity.h"

#include <stdexcept>
#include <unordered_set>

namespace qrn {

std::string_view to_string(ConsequenceDomain domain) noexcept {
    switch (domain) {
        case ConsequenceDomain::Quality: return "quality";
        case ConsequenceDomain::Safety: return "safety";
    }
    return "unknown";
}

ConsequenceClassSet::ConsequenceClassSet(std::vector<ConsequenceClass> classes)
    : classes_(std::move(classes)) {
    if (classes_.empty()) {
        throw std::invalid_argument("ConsequenceClassSet: needs at least one class");
    }
    std::unordered_set<std::string> ids;
    bool seen_safety = false;
    const ConsequenceClass* prev = nullptr;
    for (const auto& c : classes_) {
        if (c.id.empty()) {
            throw std::invalid_argument("ConsequenceClassSet: class id must be non-empty");
        }
        if (!ids.insert(c.id).second) {
            throw std::invalid_argument("ConsequenceClassSet: duplicate class id " + c.id);
        }
        if (prev != nullptr && c.rank <= prev->rank) {
            throw std::invalid_argument(
                "ConsequenceClassSet: ranks must be strictly increasing (" + c.id + ")");
        }
        if (c.domain == ConsequenceDomain::Safety) {
            seen_safety = true;
        } else if (seen_safety) {
            throw std::invalid_argument(
                "ConsequenceClassSet: quality classes must precede safety classes (" +
                c.id + ")");
        }
        prev = &c;
    }
}

const ConsequenceClass& ConsequenceClassSet::at(std::size_t index) const {
    if (index >= classes_.size()) {
        throw std::out_of_range("ConsequenceClassSet::at: bad index");
    }
    return classes_[index];
}

std::optional<std::size_t> ConsequenceClassSet::index_of(
    std::string_view id) const noexcept {
    for (std::size_t i = 0; i < classes_.size(); ++i) {
        if (classes_[i].id == id) return i;
    }
    return std::nullopt;
}

ConsequenceClassSet ConsequenceClassSet::paper_example() {
    return ConsequenceClassSet({
        {"vQ1", "Perceived safety", ConsequenceDomain::Quality, 1,
         "causing scared pedestrian or passenger"},
        {"vQ2", "Emergency manoeuvre", ConsequenceDomain::Quality, 2,
         "causing evasive manoeuvre for other road user"},
        {"vQ3", "Material damage", ConsequenceDomain::Quality, 3,
         "collision resulting in bodywork damage"},
        {"vS1", "Light to moderate injuries", ConsequenceDomain::Safety, 4,
         "collision with other car at low speed"},
        {"vS2", "Severe injuries", ConsequenceDomain::Safety, 5,
         "collision with other car at medium speed"},
        {"vS3", "Life-threatening injuries", ConsequenceDomain::Safety, 6,
         "collision with car at high speed or collision with pedestrian"},
    });
}

}  // namespace qrn
