// The quantitative risk norm (QRN) itself.
//
// "The risk norm defines what is regarded 'sufficiently safe' in the
// design-time safety case top claim" (Sec. III-A): for every consequence
// class v_j it fixes an acceptable total frequency f_{v_j}^{acceptable}.
// The norm is one per safety case, valid across the whole ODD regardless of
// where/when/how the feature is used, and deliberately independent of any
// implementation strategy.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "qrn/frequency.h"
#include "qrn/severity.h"

namespace qrn {

/// A consequence class together with its acceptable total frequency.
struct NormEntry {
    ConsequenceClass consequence_class;
    Frequency limit;  ///< f_v^(acceptable), events per operational hour.
};

/// The quantitative risk norm: acceptable frequency per consequence class.
///
/// Invariants established at construction:
///  - the underlying class set is valid (see ConsequenceClassSet);
///  - limits are strictly positive (a zero budget would make every incident
///    type infeasible and is rejected as a modelling error);
///  - limits are non-increasing with severity rank ("we will likely accept
///    higher frequencies of quality-related consequences than those
///    involving injuries", Sec. III-A).
class RiskNorm {
public:
    RiskNorm(ConsequenceClassSet classes, std::vector<Frequency> limits,
             std::string name = "unnamed norm");

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] std::size_t size() const noexcept { return limits_.size(); }
    [[nodiscard]] const ConsequenceClassSet& classes() const noexcept { return classes_; }

    /// Acceptable frequency for the class at `index`.
    [[nodiscard]] Frequency limit(std::size_t index) const;

    /// Acceptable frequency for the class with the given id.
    [[nodiscard]] Frequency limit_by_id(std::string_view id) const;

    [[nodiscard]] NormEntry entry(std::size_t index) const;

    /// Returns a norm identical to this one except the limit of class `id`
    /// is scaled by `factor` (> 0). Scaling must preserve monotonicity.
    [[nodiscard]] RiskNorm with_scaled_limit(std::string_view id, double factor) const;

    /// The running example used throughout the repository: the six classes
    /// of ConsequenceClassSet::paper_example() with limits spanning
    /// 1e-3 /h (scared road user) down to 1e-8 /h (life-threatening injury).
    /// The paper's own disclaimer applies: illustrative values only.
    [[nodiscard]] static RiskNorm paper_example();

private:
    ConsequenceClassSet classes_;
    std::vector<Frequency> limits_;
    std::string name_;
};

}  // namespace qrn
