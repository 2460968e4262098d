#include "qrn/product_line.h"

#include <algorithm>
#include <stdexcept>

namespace qrn {

ProductLine::ProductLine(RiskNorm norm, IncidentTypeSet types, ContributionMatrix matrix,
                         EthicalConstraint ethics)
    : problem_(std::move(norm), std::move(types), std::move(matrix), {}, ethics) {}

void ProductLine::add_variant(const std::string& name,
                              const std::vector<double>& weights) {
    if (variants_.count(name) != 0) {
        throw std::invalid_argument("ProductLine: duplicate variant '" + name + "'");
    }
    const AllocationProblem weighted(problem_.norm(), problem_.types(),
                                     problem_.matrix(), weights, problem_.ethics());
    auto allocation = allocate_proportional(weighted);
    if (!satisfies_norm(problem_, allocation.budgets)) {
        throw std::invalid_argument("ProductLine: variant '" + name +
                                    "' cannot satisfy the shared norm");
    }
    allocation.solver = "proportional (variant " + name + ")";
    variants_.emplace(name, std::move(allocation));
}

const Allocation& ProductLine::variant(const std::string& name) const {
    const auto it = variants_.find(name);
    if (it == variants_.end()) {
        throw std::out_of_range("ProductLine: no variant '" + name + "'");
    }
    return it->second;
}

std::vector<BudgetSpread> ProductLine::budget_spread() const {
    if (variants_.empty()) {
        throw std::logic_error("ProductLine::budget_spread: no variants yet");
    }
    std::vector<BudgetSpread> out;
    for (std::size_t k = 0; k < problem_.types().size(); ++k) {
        BudgetSpread spread;
        spread.incident_type_id = problem_.types().at(k).id();
        bool first = true;
        for (const auto& [name, allocation] : variants_) {
            const Frequency budget = allocation.budgets[k];
            if (first) {
                spread.min_budget = budget;
                spread.max_budget = budget;
                first = false;
            } else {
                spread.min_budget = std::min(spread.min_budget, budget);
                spread.max_budget = std::max(spread.max_budget, budget);
            }
        }
        spread.ratio = spread.min_budget.per_hour_value() > 0.0
                           ? spread.max_budget.ratio(spread.min_budget)
                           : 1.0;
        out.push_back(std::move(spread));
    }
    return out;
}

}  // namespace qrn
