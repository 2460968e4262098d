// Urban robotaxi: the full QRN lifecycle on a simulated fleet.
//
// Scenario: an urban ODD (<= 50 km/h streets, rain and night allowed), a
// cautious tactical policy, and a fleet accumulating operational hours.
// The example allocates SG budgets from a risk norm, runs the fleet, and
// verifies Eq. 1 from the measured incident log - including the exposure
// needed before the statistical upper bounds clear the limits.
//
// Run: ./urban_robotaxi [hours=50000] [seed=2024]
#include <iostream>

#include "exec/parallel.h"
#include "fsc/refinement.h"
#include "qrn/qrn.h"
#include "report/table.h"
#include "safety_case/builder.h"
#include "sim/sim.h"
#include "stats/rng.h"
#include "tools/parse.h"

int main(int argc, char** argv) {
    using namespace qrn;
    double hours = 50000.0;
    std::uint64_t seed = 2024;
    try {
        if (argc > 1) hours = tools::parse_positive("hours", argv[1]);
        if (argc > 2) seed = tools::parse_u64("seed", argv[2]);
    } catch (const tools::ParseError& e) {
        std::cerr << "urban_robotaxi: " << e.what() << "\n";
        return 1;
    }

    // A service-level norm for the pilot deployment. Limits are deliberately
    // modest (this is a research example, not a certified safety case).
    RiskNorm norm(ConsequenceClassSet::paper_example(),
                  {
                      Frequency::per_hour(5e-1),  // vQ1 scared road user
                      Frequency::per_hour(2e-1),  // vQ2 forced evasive action
                      Frequency::per_hour(5e-2),  // vQ3 material damage
                      Frequency::per_hour(1e-2),  // vS1 light/moderate injuries
                      Frequency::per_hour(5e-3),  // vS2 severe injuries
                      Frequency::per_hour(3e-3),  // vS3 life-threatening
                  },
                  "urban robotaxi pilot norm");

    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel injury;
    const auto matrix =
        ContributionMatrix::from_injury_model(norm, types, injury, {0.6, 0.4});
    const AllocationProblem problem(norm, types, matrix, {}, EthicalConstraint{0.8});
    const auto allocation = allocate_water_filling(problem);
    const auto goals = SafetyGoalSet::derive(problem, allocation);

    std::cout << "Safety goals for the pilot:\n";
    for (const auto& goal : goals.all()) std::cout << "  " << goal.id << ": " << goal.text << '\n';

    // Fleet operation inside the urban ODD with the cautious policy.
    sim::FleetConfig config;
    config.odd = sim::Odd::urban();
    config.policy = sim::TacticalPolicy::cautious();
    config.seed = seed;
    std::cout << "\nOperating " << hours << " h in " << config.odd.describe() << " ...\n";
    // Parallel across operational stretches; the log is identical to a
    // serial run (per-stretch RNG streams, partials merged in order).
    const auto log = sim::FleetSimulator(config).run(hours, exec::default_jobs());
    std::cout << "  encounters resolved: " << log.encounters
              << ", incidents logged: " << log.incidents.size()
              << ", emergency brakings: " << log.emergency_brakings << "\n\n";

    // Eq. 1 verification from the measured evidence.
    const auto evidence = log.evidence_for(types);
    const auto verification = verify_against_evidence(problem, allocation, evidence, 0.95);

    report::Table goal_table({"goal", "budget", "observed", "95% upper", "verdict"});
    for (const auto& g : verification.goals) {
        goal_table.add_row({"SG-" + g.incident_type_id, g.budget.to_string(),
                            g.point_rate.to_string(), g.upper_rate.to_string(),
                            std::string(to_string(g.verdict))});
    }
    std::cout << goal_table.render() << '\n';

    report::Table class_table({"class", "limit", "point usage", "upper usage", "verdict"});
    for (const auto& c : verification.classes) {
        class_table.add_row({c.class_id, c.limit.to_string(), c.point_usage.to_string(),
                             c.upper_usage.to_string(), std::string(to_string(c.verdict))});
    }
    std::cout << class_table.render() << '\n';

    // Refine the goals into a functional safety concept (Sec. IV) and
    // assemble the full safety case from every artifact produced above.
    const auto fsc = fsc::derive_fsc(goals, fsc::ChainTemplate{});
    const auto tree = ClassificationTree::paper_example();
    const auto mece = tree.certify_mece(
        50000,
        [](std::size_t i) {
            stats::Rng rng = stats::Rng::stream(7, i);
            Incident incident;
            incident.second = actor_type_from_index(
                static_cast<std::size_t>(rng.uniform_int(1, kActorTypeCount - 1)));
            if (rng.bernoulli(0.5)) {
                incident.mechanism = IncidentMechanism::NearMiss;
                incident.min_distance_m = rng.uniform(0.0, 5.0);
            }
            incident.relative_speed_kmh = rng.uniform(0.0, 150.0);
            return incident;
        },
        10, exec::default_jobs());
    safety_case::CaseInputs case_inputs;
    case_inputs.problem = &problem;
    case_inputs.allocation = &allocation;
    case_inputs.goals = &goals;
    case_inputs.mece_certificate = &mece;
    case_inputs.verification = &verification;
    case_inputs.fsc = &fsc;
    const auto safety_case = safety_case::build_case(case_inputs);
    std::cout << safety_case.render() << '\n';

    if (verification.norm_fulfilled()) {
        std::cout << "Risk norm FULFILLED with 95% confidence.\n";
    } else if (verification.norm_point_fulfilled()) {
        std::cout << "Point estimates inside the norm, but confidence bounds are not "
                     "conclusive yet - more operational exposure needed.\n";
        // Every type shares the log's exposure T, and at fixed counts every
        // upper bound scales as 1/T. So with no further event, class j
        // reads FULFILLED from T * upper_usage_j / L_j hours in total.
        for (const auto& c : verification.classes) {
            if (c.verdict == ClassVerdict::Fulfilled) continue;
            std::cout << "  to demonstrate " << c.class_id
                      << " with zero further events: "
                      << log.exposure.hours() * c.upper_usage.per_hour_value() /
                             c.limit.per_hour_value()
                      << " h in total\n";
        }
    } else {
        std::cout << "Risk norm VIOLATED - the FSC must change the tactical policy "
                     "or restrict the ODD.\n";
    }
    return verification.norm_point_fulfilled() ? 0 : 1;
}
