#include "qrn/risk_norm.h"

#include <stdexcept>

namespace qrn {

RiskNorm::RiskNorm(ConsequenceClassSet classes, std::vector<Frequency> limits,
                   std::string name)
    : classes_(std::move(classes)), limits_(std::move(limits)), name_(std::move(name)) {
    if (limits_.size() != classes_.size()) {
        throw std::invalid_argument("RiskNorm: one limit per consequence class required");
    }
    for (std::size_t i = 0; i < limits_.size(); ++i) {
        if (limits_[i].is_zero()) {
            throw std::invalid_argument("RiskNorm: limit for " + classes_.at(i).id +
                                        " must be > 0");
        }
        if (i > 0 && limits_[i] > limits_[i - 1]) {
            throw std::invalid_argument(
                "RiskNorm: limits must be non-increasing with severity (" +
                classes_.at(i).id + ")");
        }
    }
}

Frequency RiskNorm::limit(std::size_t index) const {
    if (index >= limits_.size()) throw std::out_of_range("RiskNorm::limit: bad index");
    return limits_[index];
}

Frequency RiskNorm::limit_by_id(std::string_view id) const {
    const auto idx = classes_.index_of(id);
    if (!idx) throw std::out_of_range("RiskNorm: no class " + std::string(id));
    return limits_[*idx];
}

NormEntry RiskNorm::entry(std::size_t index) const {
    if (index >= limits_.size()) throw std::out_of_range("RiskNorm::entry: bad index");
    return NormEntry{classes_.at(index), limits_[index]};
}

RiskNorm RiskNorm::with_scaled_limit(std::string_view id, double factor) const {
    if (factor <= 0.0) {
        throw std::invalid_argument("RiskNorm::with_scaled_limit: factor must be > 0");
    }
    const auto idx = classes_.index_of(id);
    if (!idx) throw std::out_of_range("RiskNorm: no class " + std::string(id));
    auto limits = limits_;
    limits[*idx] = limits[*idx] * factor;
    return RiskNorm(classes_, std::move(limits), name_ + " (scaled " + std::string(id) + ")");
}

RiskNorm RiskNorm::paper_example() {
    return RiskNorm(ConsequenceClassSet::paper_example(),
                    {
                        Frequency::per_hour(1e-3),  // vQ1 perceived safety
                        Frequency::per_hour(1e-4),  // vQ2 emergency manoeuvre
                        Frequency::per_hour(1e-5),  // vQ3 material damage
                        Frequency::per_hour(1e-6),  // vS1 light/moderate injuries
                        Frequency::per_hour(1e-7),  // vS2 severe injuries
                        Frequency::per_hour(1e-8),  // vS3 life-threatening injuries
                    },
                    "paper example norm");
}

}  // namespace qrn
