// The largest campaign the CLI accepts (--fleets 100000, a 100003-node
// DAG) must compile in bounded time: plan, DAG, the coordinator's
// per-fleet index lookups, metrics and the default budget check. Built as
// its own binary so ctest can give it a wall-clock TIMEOUT; a step that
// grows faster than linearly in the fleet count fails by timing out.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "sched/dag.h"
#include "sched/plan.h"

namespace {

using namespace qrn::sched;

constexpr std::uint64_t kMaxFleets = 100000;  // the CLI's --fleets ceiling

TEST(SchedLimits, LargestAcceptedCampaignCompilesInBoundedTime) {
    CampaignPlan shape;
    shape.policy = "nominal";
    shape.odd = "urban";
    shape.seed = 7;
    shape.fleets = kMaxFleets;
    shape.hours_per_fleet = 1.0;
    const CampaignPlan plan = make_plan(shape.policy, shape.odd,
                                        config_from_plan(shape),
                                        campaign_inputs_digest());
    ASSERT_EQ(plan.nodes.size(), kMaxFleets);

    const Dag dag = build_campaign_dag(plan);
    EXPECT_EQ(dag.size(), kMaxFleets + 3);
    EXPECT_EQ(dag.edge_count(), 2 * kMaxFleets + 1);

    // What run_coordinator does at start: look up every fleet node by id.
    for (std::uint64_t i = 0; i < kMaxFleets; ++i) {
        const auto at = dag.index_of(plan_node_id(i));
        ASSERT_TRUE(at.has_value()) << plan_node_id(i);
        ASSERT_EQ(*at, i + 3) << plan_node_id(i);
    }

    const DagMetrics metrics = compute_metrics(dag);
    EXPECT_EQ(metrics.node_count, kMaxFleets + 3);
    EXPECT_EQ(metrics.edge_count, 2 * kMaxFleets + 1);
    EXPECT_EQ(metrics.max_depth, 4u);
    EXPECT_EQ(metrics.fanout_peak, kMaxFleets);
    EXPECT_EQ(metrics.fanin_peak, kMaxFleets);

    const BudgetCheck check = check_budget(metrics, DagBudget::campaign_default());
    EXPECT_TRUE(check.passed) << check.diagnostics;
    EXPECT_TRUE(check.has_warnings);
    EXPECT_NE(check.diagnostics.find(
                  "sched: warning: node count 100003 exceeds soft limit 10003"),
              std::string::npos)
        << check.diagnostics;
    EXPECT_NE(check.diagnostics.find(
                  "sched: warning: fan-out peak 100000 exceeds soft limit 10000"),
              std::string::npos)
        << check.diagnostics;
    EXPECT_EQ(check.diagnostics.find("over budget"), std::string::npos)
        << check.diagnostics;
}

}  // namespace
