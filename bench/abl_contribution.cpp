// ABL4: contribution-fraction provenance ablation.
//
// The paper requires the incident->consequence assignment to be "well
// substantiated" from data. This bench compares the two substantiation
// paths the toolkit offers for the same world: (a) analytic band averages
// of the injury-risk model (from_injury_model) and (b) empirical estimation
// from a labelled synthetic incident database (empirical.h), and shows how
// the resulting allocations and safety-goal budgets agree as the database
// grows.
//
// Expected shape: empirical fractions and budgets converge to the analytic
// ones as the sample grows; small databases give noisy budgets - the reason
// a real safety case must substantiate its fractions with enough data.
#include <cmath>
#include <cstdint>
#include <iostream>

#include "exec/parallel.h"
#include "qrn/empirical.h"
#include "qrn/qrn.h"
#include "report/csv.h"
#include "report/table.h"

int main() {
    using namespace qrn;
    using namespace qrn::report;

    std::cout << "ABL4: analytic vs empirical contribution fractions\n\n";

    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel model;
    const auto analytic =
        ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});
    const AllocationProblem analytic_problem(norm, types, analytic);
    const auto analytic_alloc = allocate_water_filling(analytic_problem);

    Table table({"database size", "max |fraction error|", "I2 budget (empirical)",
                 "I2 budget (analytic)", "budget ratio"});
    CsvWriter csv({"samples", "max_fraction_error", "i2_budget_empirical",
                   "i2_budget_analytic"});
    const auto i2 = types.index_of("I2").value();
    double last_err = 1.0;
    bool shrinking = true;
    for (const int per_band : {200, 2000, 20000, 200000}) {
        stats::Rng rng(2468);
        std::vector<Incident> incidents;
        incidents.reserve(static_cast<std::size_t>(per_band) * 3);
        for (int i = 0; i < per_band; ++i) {
            Incident low;
            low.second = ActorType::Vru;
            low.relative_speed_kmh = rng.uniform(1e-6, 10.0);
            incidents.push_back(low);
            Incident high = low;
            high.relative_speed_kmh = rng.uniform(10.0, 70.0);
            incidents.push_back(high);
            Incident nm;
            nm.second = ActorType::Vru;
            nm.mechanism = IncidentMechanism::NearMiss;
            nm.min_distance_m = rng.uniform(0.0, 1.0);
            nm.relative_speed_kmh = rng.uniform(10.0, 40.0);
            incidents.push_back(nm);
        }
        // Stream-seeded overload: incident i labels from stream(2468, i),
        // in parallel chunks, independent of the incident count above.
        const auto labelled = label_incidents(incidents, norm, model, {0.6, 0.4},
                                              std::uint64_t{2468},
                                              qrn::exec::default_jobs());
        const auto counts = tally_contributions(labelled, types, norm.size());
        const auto empirical = counts.point_matrix();

        double max_err = 0.0;
        for (std::size_t j = 0; j < norm.size(); ++j) {
            for (std::size_t k = 0; k < types.size(); ++k) {
                max_err = std::max(max_err, std::fabs(empirical.fraction(j, k) -
                                                      analytic.fraction(j, k)));
            }
        }
        const AllocationProblem empirical_problem(norm, types, empirical);
        const auto empirical_alloc = allocate_water_filling(empirical_problem);
        const double ratio = empirical_alloc.budgets[i2].per_hour_value() /
                             analytic_alloc.budgets[i2].per_hour_value();
        table.add_row({std::to_string(incidents.size()), fixed(max_err, 4),
                       empirical_alloc.budgets[i2].to_string(),
                       analytic_alloc.budgets[i2].to_string(), fixed(ratio, 3)});
        csv.add_row({std::to_string(incidents.size()), fixed(max_err, 5),
                     scientific(empirical_alloc.budgets[i2].per_hour_value(), 3),
                     scientific(analytic_alloc.budgets[i2].per_hour_value(), 3)});
        if (per_band >= 20000) shrinking = shrinking && max_err <= last_err;
        last_err = max_err;
    }
    std::cout << table.render() << '\n';

    csv.write_file("abl_contribution.csv");
    std::cout << "series written to abl_contribution.csv\n\n";
    std::cout << "Shape check vs paper: empirical fractions converge to the analytic "
                 "band averages = "
              << (last_err < 0.01 && shrinking ? "yes" : "NO") << " -> "
              << (last_err < 0.01 ? "PASS" : "FAIL") << '\n';
    return last_err < 0.01 ? 0 : 1;
}
