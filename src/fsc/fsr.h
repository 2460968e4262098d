// Functional safety requirements and the functional safety concept (FSC).
//
// Paper Sec. IV: "The work of fulfilling the SGs in ISO 26262 starts with a
// functional safety concept (FSC) where functional safety requirements are
// defined and allocated to logical elements. It will hence be up to the FSC
// to translate what it means to fulfil the risk norm, as expressed by the
// SGs, to the solution." In the quantitative framework of Sec. V, each
// refined requirement carries a frequency budget instead of an inherited
// ASIL, and one SG budget is closed by *all* contributing causes together.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "qrn/frequency.h"
#include "qrn/safety_goal.h"
#include "quant/architecture.h"

namespace qrn::fsc {

/// One functional safety requirement: a budgeted obligation on a logical
/// element, traceable to the safety goal it refines.
struct FunctionalSafetyRequirement {
    std::string id;             ///< "FSR-I2.1".
    std::string safety_goal_id; ///< The SG this requirement refines.
    std::string element;        ///< Logical element it is allocated to.
    std::string text;           ///< The obligation in prose.
    Frequency budget;           ///< Max violation frequency for this element.
    quant::CauseCategory cause = quant::CauseCategory::SystematicDesign;
};

/// The refinement of one safety goal: its requirement set plus the
/// architecture expression that combines their violations.
class GoalRefinement {
public:
    /// Requires a non-empty id, at least one requirement, and a non-null
    /// architecture whose evaluated violation frequency is within the SG
    /// budget (the quantitative closure check of Sec. V; checked).
    GoalRefinement(SafetyGoal goal, std::vector<FunctionalSafetyRequirement> requirements,
                   std::unique_ptr<quant::ArchNode> architecture);

    [[nodiscard]] const SafetyGoal& goal() const noexcept { return goal_; }
    [[nodiscard]] const std::vector<FunctionalSafetyRequirement>& requirements()
        const noexcept {
        return requirements_;
    }
    [[nodiscard]] const quant::ArchNode& architecture() const noexcept {
        return *architecture_;
    }

    /// Combined violation frequency of the refinement.
    [[nodiscard]] Frequency combined_rate() const { return architecture_->evaluate(); }

private:
    SafetyGoal goal_;
    std::vector<FunctionalSafetyRequirement> requirements_;
    std::unique_ptr<quant::ArchNode> architecture_;
};

/// A functional safety concept: one refinement per safety goal.
class FunctionalSafetyConcept {
public:
    /// Requires exactly one refinement per goal in `goals` (matched by SG
    /// id), each of which has passed its closure check at construction.
    FunctionalSafetyConcept(const SafetyGoalSet& goals,
                            std::vector<GoalRefinement> refinements);

    [[nodiscard]] std::size_t size() const noexcept { return refinements_.size(); }
    [[nodiscard]] const GoalRefinement& by_goal(std::string_view safety_goal_id) const;

    /// All requirements across all goals (for review tables).
    [[nodiscard]] std::vector<FunctionalSafetyRequirement> all_requirements() const;

private:
    std::vector<GoalRefinement> refinements_;
};

}  // namespace qrn::fsc
