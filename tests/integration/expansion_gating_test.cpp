// Integration: evidence-gated ODD expansion (campaign + Eq. 1 + SPRT),
// the deployment pattern of the odd_expansion example, as assertions.
#include <gtest/gtest.h>

#include "qrn/norm_builder.h"
#include "qrn/qrn.h"
#include "sim/sim.h"
#include "stats/sequential.h"

namespace qrn {
namespace {

struct Programme {
    AllocationProblem problem;
    Allocation allocation;

    static Programme make(double ceiling, double floor) {
        NormCalibration calibration;
        calibration.societal_ceiling_per_hour = ceiling;
        calibration.claimable_floor_per_hour = floor;
        auto norm = calibrate_norm(ConsequenceClassSet::paper_example(), calibration);
        auto types = IncidentTypeSet::paper_vru_example();
        const InjuryRiskModel injury;
        auto matrix =
            ContributionMatrix::from_injury_model(norm, types, injury, {0.6, 0.4});
        AllocationProblem problem(std::move(norm), std::move(types), std::move(matrix));
        auto allocation = allocate_water_filling(problem);
        return Programme{std::move(problem), std::move(allocation)};
    }
};

sim::CampaignConfig stage_campaign(const sim::Odd& odd, std::uint64_t seed) {
    sim::CampaignConfig campaign;
    campaign.base.odd = odd;
    campaign.base.policy = sim::TacticalPolicy::cautious();
    campaign.base.seed = seed;
    campaign.fleets = 4;
    campaign.hours_per_fleet = 1500.0;
    return campaign;
}

TEST(ExpansionGating, AchievableNormPassesEveryGate) {
    const auto programme = Programme::make(2e-2, 2e-3);
    sim::Odd restricted = sim::Odd::urban();
    restricted.max_speed_limit_kmh = 30.0;
    restricted.max_vru_density = 1.0;
    const sim::Odd stages[] = {restricted, sim::Odd::urban()};

    const auto i3 = programme.problem.types().index_of("I3").value();
    const double budget_i3 = programme.allocation.budgets[i3].per_hour_value();
    stats::PoissonSprt tripwire(budget_i3, 4.0 * budget_i3, 0.05, 0.05);

    for (std::uint64_t s = 0; s < 2; ++s) {
        const auto result = sim::run_campaign(stage_campaign(stages[s], 700 + s));
        const auto evidence = result.pooled_evidence(programme.problem.types());
        const auto report = verify_against_evidence(programme.problem,
                                                    programme.allocation, evidence, 0.95);
        tripwire.observe(evidence[i3].events, result.total_exposure.hours());
        EXPECT_TRUE(report.norm_point_fulfilled()) << "stage " << s;
        EXPECT_NE(tripwire.decision(), stats::SprtDecision::RejectH0) << "stage " << s;
    }
}

TEST(ExpansionGating, UnachievableNormHaltsAtTheGate) {
    // A norm three orders tighter than the fleet can deliver: the gate
    // must refuse expansion on the very first stage.
    const auto programme = Programme::make(2e-5, 2e-6);
    const auto result = sim::run_campaign(stage_campaign(sim::Odd::urban(), 900));
    const auto evidence = result.pooled_evidence(programme.problem.types());
    const auto report = verify_against_evidence(programme.problem, programme.allocation,
                                                evidence, 0.95);
    EXPECT_FALSE(report.norm_fulfilled());

    const auto i3 = programme.problem.types().index_of("I3").value();
    const double budget_i3 = programme.allocation.budgets[i3].per_hour_value();
    stats::PoissonSprt tripwire(budget_i3, 4.0 * budget_i3, 0.05, 0.05);
    tripwire.observe(evidence[i3].events, result.total_exposure.hours());
    EXPECT_EQ(tripwire.decision(), stats::SprtDecision::RejectH0);
}

TEST(ExpansionGating, WiderOddCarriesMoreRisk) {
    // The reason staging exists: the full ODD's incident rate exceeds the
    // restricted stage's under the same policy and evidence volume.
    sim::Odd restricted = sim::Odd::urban();
    restricted.max_speed_limit_kmh = 30.0;
    restricted.max_vru_density = 1.0;
    const auto types = IncidentTypeSet::paper_vru_example();
    const auto stage1 = sim::run_campaign(stage_campaign(restricted, 123)).aggregate(types);
    const auto stage3 =
        sim::run_campaign(stage_campaign(sim::Odd::urban(), 123)).aggregate(types);
    EXPECT_LT(stage1.pooled_incident_rate().per_hour_value(),
              stage3.pooled_incident_rate().per_hour_value());
}

}  // namespace
}  // namespace qrn
