#include "fsc/fsr.h"

#include <stdexcept>
#include <unordered_set>

namespace qrn::fsc {

GoalRefinement::GoalRefinement(SafetyGoal goal,
                               std::vector<FunctionalSafetyRequirement> requirements,
                               std::unique_ptr<quant::ArchNode> architecture)
    : goal_(std::move(goal)),
      requirements_(std::move(requirements)),
      architecture_(std::move(architecture)) {
    if (requirements_.empty()) {
        throw std::invalid_argument("GoalRefinement: at least one requirement required");
    }
    if (!architecture_) {
        throw std::invalid_argument("GoalRefinement: architecture must be non-null");
    }
    std::unordered_set<std::string> ids;
    for (const auto& r : requirements_) {
        if (r.id.empty()) {
            throw std::invalid_argument("GoalRefinement: requirement id must be non-empty");
        }
        if (!ids.insert(r.id).second) {
            throw std::invalid_argument("GoalRefinement: duplicate requirement id " + r.id);
        }
        if (r.safety_goal_id != goal_.id) {
            throw std::invalid_argument("GoalRefinement: requirement " + r.id +
                                        " traces to the wrong goal");
        }
    }
    const Frequency combined = architecture_->evaluate();
    if (combined > goal_.max_frequency * (1.0 + 1e-9)) {
        throw std::invalid_argument(
            "GoalRefinement: combined violation frequency " + combined.to_string() +
            " exceeds the budget of " + goal_.id + " (" +
            goal_.max_frequency.to_string() + "); the refinement is unsound");
    }
}

FunctionalSafetyConcept::FunctionalSafetyConcept(const SafetyGoalSet& goals,
                                                 std::vector<GoalRefinement> refinements)
    : refinements_(std::move(refinements)) {
    if (refinements_.size() != goals.size()) {
        throw std::invalid_argument(
            "FunctionalSafetyConcept: exactly one refinement per safety goal");
    }
    std::unordered_set<std::string> covered;
    for (const auto& r : refinements_) covered.insert(r.goal().id);
    for (const auto& g : goals.all()) {
        if (covered.count(g.id) == 0) {
            throw std::invalid_argument("FunctionalSafetyConcept: goal " + g.id +
                                        " has no refinement");
        }
    }
}

const GoalRefinement& FunctionalSafetyConcept::by_goal(
    std::string_view safety_goal_id) const {
    for (const auto& r : refinements_) {
        if (r.goal().id == safety_goal_id) return r;
    }
    throw std::out_of_range("FunctionalSafetyConcept: no refinement for " +
                            std::string(safety_goal_id));
}

std::vector<FunctionalSafetyRequirement> FunctionalSafetyConcept::all_requirements()
    const {
    std::vector<FunctionalSafetyRequirement> out;
    for (const auto& r : refinements_) {
        out.insert(out.end(), r.requirements().begin(), r.requirements().end());
    }
    return out;
}

}  // namespace qrn::fsc
