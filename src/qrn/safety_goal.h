// Safety goals with quantitative integrity attributes.
//
// In the QRN approach "each defined incident type will result in one SG"
// (Sec. III), and "each SG shall have an integrity attribute in the form of
// a guaranteed frequency, i.e. what is the maximum tolerated occurrence of
// violating this SG". The paper's example rendering:
//
//   SG-I2: Avoid collision Ego<->VRU, with 0 < dv <= 10 km/h, to below f_I2.
//
// SafetyGoalSet couples the goals to the completeness argument: goals are
// complete *by construction* when derived from an allocation whose incident
// types partition a MECE classification.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "qrn/allocation.h"
#include "qrn/classification.h"
#include "qrn/incident_type.h"

namespace qrn {

/// One top-level safety requirement produced by the tailored HARA.
struct SafetyGoal {
    std::string id;               ///< "SG-I2".
    std::string incident_type_id; ///< "I2".
    ActorType counterparty = ActorType::Car;
    IncidentMechanism mechanism = IncidentMechanism::Collision;
    Frequency max_frequency;      ///< The quantitative integrity attribute.
    std::string text;             ///< Paper-style full sentence.
};

/// The set of safety goals derived from one allocation.
class SafetyGoalSet {
public:
    /// Derives one SG per incident type from an allocation. The allocation
    /// must have one budget per type and satisfy the problem's norm
    /// (checked; deriving goals from an infeasible allocation would encode
    /// an unsound safety case).
    [[nodiscard]] static SafetyGoalSet derive(const AllocationProblem& problem,
                                              const Allocation& allocation);

    [[nodiscard]] std::size_t size() const noexcept { return goals_.size(); }
    [[nodiscard]] const std::vector<SafetyGoal>& all() const noexcept { return goals_; }
    [[nodiscard]] const SafetyGoal& by_incident_type(std::string_view type_id) const;

    /// The completeness argument (Sec. III-B): ties the goal set to a MECE
    /// certificate over the classification the incident types refine.
    /// Returns a multi-line textual argument suitable for a safety-case
    /// work product; `certificate` must be a certified report. When a
    /// type-coverage report is supplied, leaves whose incidents the goal
    /// set does not (fully) constrain are listed explicitly as open
    /// obligations - a real study must close or waive each one.
    [[nodiscard]] std::string completeness_argument(
        const ClassificationTree& tree, const MeceReport& certificate,
        const TypeCoverageReport* coverage = nullptr) const;

private:
    explicit SafetyGoalSet(std::vector<SafetyGoal> goals) : goals_(std::move(goals)) {}
    std::vector<SafetyGoal> goals_;
};

/// Renders the paper-style SG sentence for one incident type and budget,
/// e.g. "Avoid collision Ego<->VRU, with 0 < dv <= 10 km/h, to below
/// 2.5e-07 /h." Near-miss types render as "Avoid near-miss ...".
[[nodiscard]] std::string render_goal_text(const IncidentType& type, Frequency budget);

}  // namespace qrn
