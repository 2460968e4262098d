#include "qrn/safety_goal.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace qrn {

std::string render_goal_text(const IncidentType& type, Frequency budget) {
    std::ostringstream os;
    os << "Avoid "
       << (type.margin().mechanism() == IncidentMechanism::Collision ? "collision"
                                                                     : "near-miss")
       << ' ' << type.interaction_text() << ", to below " << budget.to_string() << '.';
    return os.str();
}

SafetyGoalSet SafetyGoalSet::derive(const AllocationProblem& problem,
                                    const Allocation& allocation) {
    if (allocation.budgets.size() != problem.types().size()) {
        throw std::invalid_argument("SafetyGoalSet::derive: budget/type count mismatch");
    }
    if (!satisfies_norm(problem, allocation.budgets)) {
        throw std::invalid_argument(
            "SafetyGoalSet::derive: allocation does not satisfy the risk norm "
            "(Eq. 1 violated); refusing to derive an unsound goal set");
    }
    std::vector<SafetyGoal> goals;
    goals.reserve(problem.types().size());
    for (std::size_t k = 0; k < problem.types().size(); ++k) {
        const IncidentType& t = problem.types().at(k);
        SafetyGoal g;
        g.id = "SG-" + t.id();
        g.incident_type_id = t.id();
        g.counterparty = t.counterparty();
        g.mechanism = t.margin().mechanism();
        g.max_frequency = allocation.budgets[k];
        g.text = render_goal_text(t, g.max_frequency);
        goals.push_back(std::move(g));
    }
    return SafetyGoalSet(std::move(goals));
}

const SafetyGoal& SafetyGoalSet::by_incident_type(std::string_view type_id) const {
    for (const auto& g : goals_) {
        if (g.incident_type_id == type_id) return g;
    }
    throw std::out_of_range("SafetyGoalSet: no goal for incident type " +
                            std::string(type_id));
}

std::string SafetyGoalSet::completeness_argument(const ClassificationTree& tree,
                                                 const MeceReport& certificate,
                                                 const TypeCoverageReport* coverage) const {
    if (!certificate.certified()) {
        throw std::invalid_argument(
            "completeness_argument: the MECE certificate has violations; "
            "completeness cannot be argued");
    }
    std::ostringstream os;
    os << "Completeness argument for the set of safety goals\n"
       << "--------------------------------------------------\n"
       << "1. The incident classification below is complete by definition:\n"
       << "   every theoretically possible incident belongs to exactly one\n"
       << "   leaf (mutually exclusive and collectively exhaustive).\n\n";
    for (const auto& leaf : tree.leaves()) {
        os << "   - " << leaf.joined() << '\n';
    }
    os << "\n2. Machine-checked MECE certificate: " << certificate.samples
       << " sampled incidents, each accepted by exactly one child at every\n"
       << "   level of the classification; 0 gaps, 0 overlaps.\n\n"
       << "3. Each incident type refines one leaf of the classification with\n"
       << "   a tolerance margin; each type carries one safety goal with a\n"
       << "   quantitative integrity attribute (maximum frequency):\n\n";
    for (const auto& g : goals_) {
        os << "   " << g.id << ": " << g.text << '\n';
    }
    os << "\n4. The allocated frequencies satisfy Eq. 1 of the risk norm for\n"
       << "   every consequence class (checked at derivation time), hence\n"
       << "   fulfilling all safety goals implies the quantitative risk norm\n"
       << "   is met, which is the definition of sufficiently safe in the\n"
       << "   design-time safety-case top claim.\n";
    if (coverage != nullptr) {
        os << "\n5. Goal coverage of the classification (" << coverage->samples
           << " sampled incidents):\n";
        for (const auto& leaf : coverage->leaves) {
            char line[160];
            std::snprintf(line, sizeof line, "   %-24s %6.1f%% (%zu of %zu)\n",
                          leaf.leaf.c_str(), leaf.fraction() * 100.0, leaf.covered,
                          leaf.sampled);
            os << line;
        }
        const auto gaps = coverage->gaps();
        if (gaps.empty()) {
            os << "   Every sampled incident is constrained by a safety goal.\n";
        } else {
            os << "   OPEN OBLIGATIONS - incidents in the following leaves are not\n"
               << "   (fully) constrained by any safety goal; each must be covered\n"
               << "   by further incident types or explicitly waived with rationale:\n";
            for (const auto& gap : gaps) os << "     - " << gap << '\n';
        }
    }
    return os.str();
}

}  // namespace qrn
