// The one claim loop (src/sched/claimer.h), against a real store
// directory: what it settles, claims, defers, steals and hands back, and
// the order it walks the plan in.
#include <chrono>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sched/claimer.h"
#include "sched/plan.h"
#include "store/campaign_store.h"
#include "store/lease.h"
#include "store/sync.h"

namespace {

using namespace qrn;
using sched::Claim;
using sched::Claimer;

sched::CampaignPlan campaign_plan(std::uint64_t fleets) {
    sched::CampaignPlan shape;
    shape.policy = "nominal";
    shape.odd = "urban";
    shape.seed = 11;
    shape.fleets = fleets;
    shape.hours_per_fleet = 1.0;
    return sched::make_plan(shape.policy, shape.odd, sched::config_from_plan(shape),
                            sched::campaign_inputs_digest());
}

/// A fresh store directory with its lease directory.
std::string store_for(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "qrn_claimer_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(sched::lease_dir(dir));
    return dir;
}

Claimer claimer_for(const sched::CampaignPlan& plan, const std::string& store) {
    return Claimer(plan, store, "me", 60'000,
                   sched::dispatch_order(plan, sched::build_campaign_dag(plan)));
}

std::set<std::string> lease_files(const std::string& store) {
    std::set<std::string> names;
    for (const auto& item : std::filesystem::directory_iterator(sched::lease_dir(store))) {
        names.insert(item.path().filename().string());
    }
    return names;
}

TEST(Claimer, ClaimsANodeOnlyWhenAskedForOne) {
    const auto plan = campaign_plan(5);
    const auto store = store_for("lazy");
    Claimer claimer = claimer_for(plan, store);
    for (const std::uint64_t fleet : {0u, 1u}) {
        const auto claim = claimer.next();
        ASSERT_TRUE(claim.has_value());
        EXPECT_EQ(claim->kind, Claim::Kind::Acquired);
        EXPECT_EQ(claim->fleet, fleet);
        EXPECT_EQ(claim->generation, 1u);
    }
    EXPECT_EQ(lease_files(store),
              (std::set<std::string>{"fleet-00000.lease", "fleet-00001.lease"}));
    EXPECT_FALSE(claimer.exhausted());
}

TEST(Claimer, DefersALiveForeignLeaseAndStealsItOnceExpired) {
    const auto plan = campaign_plan(1);
    const auto store = store_for("steal");
    const std::string leases = sched::lease_dir(store);
    store::overwrite_lease(
        leases, store::Lease{"fleet-00000", "peer", store::lease_now_ms(), 150, 4});
    Claimer claimer = claimer_for(plan, store);
    EXPECT_FALSE(claimer.next().has_value());
    EXPECT_FALSE(claimer.exhausted());
    EXPECT_EQ(store::read_lease(leases, "fleet-00000")->owner, "peer");

    std::optional<Claim> claim;
    for (int look = 0; look < 50 && !claim; ++look) {
        std::this_thread::sleep_for(std::chrono::milliseconds(claimer.revisit_in_ms() + 1));
        claim = claimer.next();
    }
    ASSERT_TRUE(claim.has_value());
    EXPECT_EQ(claim->kind, Claim::Kind::Stolen);
    EXPECT_EQ(claim->generation, 5u);
    const auto lease = store::read_lease(leases, "fleet-00000");
    EXPECT_EQ(lease->owner, "me");
    EXPECT_EQ(lease->generation, 5u);
    EXPECT_TRUE(claimer.exhausted());
}

TEST(Claimer, ReportsAVerifiedShardSettledAndNeverLeasesIt) {
    const auto plan = campaign_plan(2);
    const auto store = store_for("settled");
    static_cast<void>(store::simulate_fleet_shard(sched::config_from_plan(plan), store, 0,
                                                  plan.nodes[0].key));
    Claimer claimer = claimer_for(plan, store);
    const auto settled = claimer.next();
    ASSERT_TRUE(settled.has_value());
    EXPECT_EQ(settled->kind, Claim::Kind::Settled);
    EXPECT_EQ(settled->fleet, 0u);
    EXPECT_EQ(settled->shard.state, store::ShardState::Sealed);
    EXPECT_EQ(settled->shard.entry.cache_key, plan.nodes[0].key);
    EXPECT_TRUE(lease_files(store).empty());

    const auto claimed = claimer.next();
    ASSERT_TRUE(claimed.has_value());
    EXPECT_EQ(claimed->kind, Claim::Kind::Acquired);
    EXPECT_EQ(claimed->fleet, 1u);
    EXPECT_EQ(lease_files(store), std::set<std::string>{"fleet-00001.lease"});
    EXPECT_TRUE(claimer.exhausted());
    EXPECT_FALSE(claimer.next().has_value());
}

TEST(Claimer, SettlesANodeAPeerSealedWhileItClaimedAndReleasesTheLease) {
    const auto plan = campaign_plan(2);
    const auto store = store_for("sealed_meanwhile");
    Claimer claimer = claimer_for(plan, store);
    // The lease write's first fsync comes after the claimer found no shard
    // for fleet 0: seal it there, as a peer finishing the node would.
    bool sealed = false;
    store::detail::set_sync_hook_for_test([&](store::SyncKind, const std::string&) {
        if (std::exchange(sealed, true)) return;
        static_cast<void>(store::simulate_fleet_shard(sched::config_from_plan(plan), store,
                                                      0, plan.nodes[0].key));
    });
    const auto settled = claimer.next();
    store::detail::set_sync_hook_for_test(nullptr);
    ASSERT_TRUE(sealed);
    ASSERT_TRUE(settled.has_value());
    EXPECT_EQ(settled->kind, Claim::Kind::Settled);
    EXPECT_EQ(settled->fleet, 0u);
    EXPECT_EQ(settled->shard.state, store::ShardState::Sealed);
    EXPECT_TRUE(lease_files(store).empty());

    const auto claimed = claimer.next();
    ASSERT_TRUE(claimed.has_value());
    EXPECT_EQ(claimed->kind, Claim::Kind::Acquired);
    EXPECT_EQ(claimed->fleet, 1u);
}

TEST(Claimer, HandsOutAPutBackNodeBeforeAnyNewOne) {
    const auto plan = campaign_plan(4);
    const auto store = store_for("put_back");
    Claimer claimer = claimer_for(plan, store);
    ASSERT_EQ(claimer.next()->fleet, 0u);
    ASSERT_EQ(claimer.next()->fleet, 1u);
    claimer.put_back(1);
    claimer.put_back(0);
    for (const std::uint64_t fleet : {1u, 0u}) {
        const auto again = claimer.next();
        ASSERT_TRUE(again.has_value());
        EXPECT_EQ(again->kind, Claim::Kind::Held);
        EXPECT_EQ(again->fleet, fleet);
    }
    const auto fresh = claimer.next();
    ASSERT_TRUE(fresh.has_value());
    EXPECT_EQ(fresh->kind, Claim::Kind::Acquired);
    EXPECT_EQ(fresh->fleet, 2u);
    // A node put back is not claimed twice: its lease file is the first.
    EXPECT_EQ(store::read_lease(sched::lease_dir(store), "fleet-00000")->generation, 1u);
}

TEST(Claimer, DispatchOrderIsHeaviestLevelFirstThenFleetIndex) {
    const auto plan = campaign_plan(4);
    sched::Dag dag;
    const auto generate = dag.add_node("generate");
    const auto aggregate = dag.add_node("aggregate");
    for (const auto& [id, weight] : std::vector<std::pair<std::string, double>>{
             {"fleet-00003", 5.0}, {"fleet-00002", 2.0}, {"fleet-00001", 5.0},
             {"fleet-00000", 2.0}}) {
        const auto fleet = dag.add_node(id, weight);
        dag.add_edge(generate, fleet);
        dag.add_edge(fleet, aggregate);
    }
    dag.build();
    EXPECT_EQ(sched::dispatch_order(plan, dag),
              (std::vector<sched::Dag::Index>{1, 3, 0, 2}));
    // The campaign DAG ties every fleet, so it walks in index order.
    EXPECT_EQ(sched::dispatch_order(plan, sched::build_campaign_dag(plan)),
              (std::vector<sched::Dag::Index>{0, 1, 2, 3}));
    EXPECT_THROW(static_cast<void>(sched::dispatch_order(campaign_plan(5), dag)),
                 sched::SchedError);
}

}  // namespace
