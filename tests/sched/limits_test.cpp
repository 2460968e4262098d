// The largest campaign the CLI accepts (--fleets 100000, a 100003-node
// DAG) must compile in bounded time: plan, DAG, the coordinator's
// per-fleet index lookups, metrics and the default budget check. Built as
// its own binary so ctest can give it a wall-clock TIMEOUT; a step that
// grows faster than linearly in the fleet count fails by timing out.
// The binary also counts the bytes every operator new asks for, so the
// memory a built DAG keeps is pinned too.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "sched/dag.h"
#include "sched/plan.h"

namespace {

/// Bytes requested and not yet freed: what live containers' capacities
/// add up to. Each block carries its size in a header.
std::atomic<std::size_t> g_live_bytes{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

}  // namespace

void* operator new(std::size_t bytes) {
    void* block = std::malloc(bytes + kHeader);
    if (block == nullptr) throw std::bad_alloc();
    std::memcpy(block, &bytes, sizeof bytes);
    g_live_bytes.fetch_add(bytes, std::memory_order_relaxed);
    return static_cast<char*>(block) + kHeader;
}

void operator delete(void* p) noexcept {
    if (p == nullptr) return;
    void* block = static_cast<char*>(p) - kHeader;
    std::size_t bytes = 0;
    std::memcpy(&bytes, block, sizeof bytes);
    g_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
    std::free(block);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

using namespace qrn::sched;

constexpr std::uint64_t kMaxFleets = 100000;  // the CLI's --fleets ceiling

CampaignPlan campaign_plan(std::uint64_t fleets) {
    CampaignPlan shape;
    shape.policy = "nominal";
    shape.odd = "urban";
    shape.seed = 7;
    shape.fleets = fleets;
    shape.hours_per_fleet = 1.0;
    return make_plan(shape.policy, shape.odd, config_from_plan(shape),
                     campaign_inputs_digest());
}

TEST(SchedLimits, LargestAcceptedCampaignCompilesInBoundedTime) {
    const CampaignPlan plan = campaign_plan(kMaxFleets);
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

TEST(SchedLimits, BuiltCampaignDagKeepsAtMostEightyBytesPerNode) {
    // 32-bit indices, one id arena, and the staged edge list freed by
    // build(): 12 bytes of id end and weight, the id's 11 characters, 24
    // of adjacency, 12 of level and topological slot, and at most 16 of
    // id-index slots. 1000 and 5000 fleets sit at different id-index
    // loads.
    for (const std::uint64_t fleets : {std::uint64_t{1000}, std::uint64_t{5000}}) {
        const CampaignPlan plan = campaign_plan(fleets);
        const std::size_t before = g_live_bytes.load();
        const Dag dag = build_campaign_dag(plan);
        const std::size_t kept = g_live_bytes.load() - before;
        EXPECT_LE(kept, 80 * dag.size()) << fleets << " fleets";
    }
}

}  // namespace
