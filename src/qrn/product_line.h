// Product-line management: one risk norm, many variants.
//
// Sec. VII: "since the risk norm is decoupled from the implementation the
// approach is advantageous for handling variability (e.g. in product
// lines) since the same risk norm can be used for many variants. I.e.,
// while there may be some variability in the frequency allocation for each
// incident type (as solutions for variants may have different
// characteristics) the total acceptable risk for each consequence class
// will be the same." The ProductLine owns the shared problem structure,
// admits variants only with allocations that satisfy the shared norm, and
// reports how much the per-type budgets spread across the line.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "qrn/allocation.h"

namespace qrn {

/// Per-incident-type budget spread across the variants of a line.
struct BudgetSpread {
    std::string incident_type_id;
    Frequency min_budget;
    Frequency max_budget;
    double ratio = 1.0;  ///< max / min (1 = identical across variants).
};

/// A family of ADS variants sharing one risk norm and incident-type set.
class ProductLine {
public:
    /// The shared problem structure every variant allocates against.
    ProductLine(RiskNorm norm, IncidentTypeSet types, ContributionMatrix matrix,
                EthicalConstraint ethics = EthicalConstraint{});

    [[nodiscard]] const RiskNorm& norm() const noexcept { return problem_.norm(); }
    [[nodiscard]] const IncidentTypeSet& types() const noexcept {
        return problem_.types();
    }

    /// Adds a variant allocated with the given per-type demand weights
    /// (proportional solver). Throws on duplicate names or weights that
    /// cannot produce a norm-satisfying allocation.
    void add_variant(const std::string& name, const std::vector<double>& weights);

    [[nodiscard]] std::size_t size() const noexcept { return variants_.size(); }
    [[nodiscard]] const Allocation& variant(const std::string& name) const;

    /// How far the per-type budgets spread across the current variants
    /// (requires at least one variant).
    [[nodiscard]] std::vector<BudgetSpread> budget_spread() const;

private:
    AllocationProblem problem_;
    std::map<std::string, Allocation> variants_;
};

}  // namespace qrn
