// Campaign-plan contracts: node-id grammar, content-key pinning, the
// write/read round trip (including the hex encoding of seed and hours
// bits), key-skew refusal, and the generate -> fleets -> aggregate ->
// verify DAG shape. The plan is the only thing workers trust, so its
// round trip must be exact to the bit.
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "mutations.h"
#include "sched/dag.h"
#include "sched/plan.h"
#include "sim/campaign.h"
#include "store/cache_key.h"
#include "store/format.h"

namespace {

using namespace qrn;
using namespace qrn::sched;

std::string plan_dir_for(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "qrn_plan_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

sim::CampaignConfig example_config() {
    sim::CampaignConfig config;
    config.base.seed = 0xDEADBEEFCAFE1234ULL;  // needs all 64 bits to survive
    config.fleets = 3;
    config.hours_per_fleet = 123.456;  // not exactly representable in text
    return config;
}

TEST(Plan, NodeIdGrammarRoundTrips) {
    EXPECT_EQ(plan_node_id(0), "fleet-00000");
    EXPECT_EQ(plan_node_id(42), "fleet-00042");
    EXPECT_EQ(plan_node_id(123456), "fleet-123456");
    EXPECT_EQ(fleet_index_of("fleet-00042"), 42u);
    EXPECT_EQ(fleet_index_of("fleet-123456"), 123456u);
    EXPECT_FALSE(fleet_index_of("fleet-").has_value());
    EXPECT_FALSE(fleet_index_of("fleet-12x").has_value());
    EXPECT_FALSE(fleet_index_of("aggregate").has_value());
    EXPECT_FALSE(fleet_index_of("").has_value());
    // Only plan_node_id's exact spelling names a node: an attached worker
    // must not run fleet 1 for "fleet-1", nor for a 2^64 + 1 that wraps.
    EXPECT_FALSE(fleet_index_of("fleet-1").has_value());
    EXPECT_FALSE(fleet_index_of("fleet-000042").has_value());
    EXPECT_FALSE(fleet_index_of("fleet-0123456").has_value());
    EXPECT_FALSE(fleet_index_of("fleet-+0042").has_value());
    EXPECT_FALSE(fleet_index_of("fleet- 0042").has_value());
    EXPECT_FALSE(fleet_index_of("fleet-18446744073709551617").has_value());
    EXPECT_FALSE(fleet_index_of("fleet-99999999999999999999").has_value());
    EXPECT_EQ(fleet_index_of("fleet-18446744073709551615"),
              18446744073709551615u);
}

TEST(Plan, MakePlanPinsTheStoreCacheKeys) {
    const auto config = example_config();
    const std::string digest = campaign_inputs_digest();
    const CampaignPlan plan = make_plan("nominal", "urban", config, digest);
    ASSERT_EQ(plan.nodes.size(), 3u);
    for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
        EXPECT_EQ(plan.nodes[i].fleet_index, i);
        EXPECT_EQ(plan.nodes[i].key,
                  store::fleet_cache_key(config.base, config.hours_per_fleet, i,
                                         digest));
    }
    // And verify_plan_keys accepts its own product.
    verify_plan_keys(plan, digest);
}

TEST(Plan, GoldenKeysArePinned) {
    // The keys name the shards of every existing store; a change to the
    // key byte stream or to its hoisted prefix must fail here.
    CampaignPlan shape;
    shape.policy = "nominal";
    shape.odd = "urban";
    shape.seed = 1;
    shape.fleets = 5000;
    shape.hours_per_fleet = 100.0;
    const CampaignPlan plan = make_plan(shape.policy, shape.odd,
                                        config_from_plan(shape),
                                        campaign_inputs_digest());
    ASSERT_EQ(plan.nodes.size(), 5000u);
    EXPECT_EQ(store::key_hex(plan.nodes.front().key), "f28d88c5696fc3f2");
    EXPECT_EQ(store::key_hex(plan.nodes.back().key), "e8f72adfabc4b9b0");
}

TEST(Plan, WriteReadRoundTripIsExact) {
    const auto dir = plan_dir_for("roundtrip");
    // make_plan's contract: the names must be the ones config.base was
    // built from, so reconstruct the config from a named shape first.
    CampaignPlan shape;
    shape.policy = "cautious";
    shape.odd = "highway";
    shape.seed = 0xDEADBEEFCAFE1234ULL;
    shape.fleets = 3;
    shape.hours_per_fleet = 123.456;
    const sim::CampaignConfig config = config_from_plan(shape);
    const CampaignPlan plan =
        make_plan("cautious", "highway", config, campaign_inputs_digest());
    write_plan(dir, plan);
    EXPECT_TRUE(std::filesystem::exists(plan_path(dir)));
    EXPECT_TRUE(std::filesystem::is_directory(lease_dir(dir)));

    const auto read = read_plan(dir);
    ASSERT_TRUE(read.has_value());
    // operator== covers policy, odd, the full 64-bit seed, the hours bit
    // pattern and every node key - the whole identity of the campaign.
    EXPECT_TRUE(*read == plan);

    // The reconstructed config reproduces the exact cache keys.
    const sim::CampaignConfig rebuilt = config_from_plan(*read);
    EXPECT_EQ(rebuilt.base.seed, config.base.seed);
    EXPECT_EQ(rebuilt.hours_per_fleet, config.hours_per_fleet);
    verify_plan_keys(*read, campaign_inputs_digest());
}

TEST(Plan, ReadReturnsNulloptWithoutAPlan) {
    const auto dir = plan_dir_for("absent");
    EXPECT_FALSE(read_plan(dir).has_value());
}

TEST(Plan, MalformedPlanThrowsSchedError) {
    const auto dir = plan_dir_for("malformed");
    std::filesystem::create_directories(dir + "/sched");
    {
        std::ofstream out(plan_path(dir));
        out << "{\"kind\": \"qrn.sched.plan\", \"schema_version\": 1";  // torn
    }
    EXPECT_THROW(read_plan(dir), SchedError);
    {
        std::ofstream out(plan_path(dir), std::ios::trunc);
        out << "{\"kind\": \"qrn.evidence\"}\n";  // wrong document kind
    }
    EXPECT_THROW(read_plan(dir), SchedError);
}

TEST(Plan, NonIntegerFleetIndexIsMalformed) {
    // Each of these used to load silently: 1e300 and 2^64 as fleet 0
    // through an undefined cast, 1.5 as fleet 1.
    const auto dir = plan_dir_for("non_integer");
    const auto config = example_config();
    write_plan(dir, make_plan("nominal", "urban", config, campaign_inputs_digest()));
    std::ifstream in(plan_path(dir));
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const std::vector<std::pair<std::string, std::string>> cases = {
        {"\"fleet_index\": 0,", "\"fleet_index\": 1e300,"},
        {"\"fleet_index\": 0,", "\"fleet_index\": 18446744073709551616,"},
        {"\"fleet_index\": 1,", "\"fleet_index\": 1.5,"},
    };
    for (const auto& [good, bad] : cases) {
        const auto pos = text.find(good);
        ASSERT_NE(pos, std::string::npos) << good;
        std::string damaged = text;
        damaged.replace(pos, good.size(), bad);
        std::ofstream(plan_path(dir), std::ios::trunc) << damaged;
        EXPECT_THROW((void)read_plan(dir), SchedError) << bad;
    }
}

TEST(PlanMutation, EveryMutantReadsOrIsASchedError) {
    // A real plan: the one the coordinator writes for a three-fleet
    // campaign. A worker reads it, rebuilds the config and checks the keys.
    const auto dir = plan_dir_for("mutation");
    const std::string digest = campaign_inputs_digest();
    write_plan(dir, make_plan("nominal", "urban", example_config(), digest));
    std::string plan_text;
    {
        std::ifstream in(plan_path(dir));
        plan_text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }

    std::size_t accepted = 0;
    std::vector<std::string> failures;
    for (const std::string& mutant : mutation::mutants(plan_text, 0x706c616e, 150)) {
        std::ofstream(plan_path(dir), std::ios::binary | std::ios::trunc) << mutant;
        try {
            const auto plan = read_plan(dir);
            if (!plan) {
                failures.push_back("a present plan read as absent");
                continue;
            }
            (void)config_from_plan(*plan);
            verify_plan_keys(*plan, digest);
            ++accepted;
        } catch (const SchedError&) {
        } catch (const std::exception& error) {
            failures.push_back(error.what());
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_EQ(failures.size(), 0u)
        << "first: " << (failures.empty() ? std::string() : failures.front());
}

TEST(Plan, KeySkewIsRefused) {
    const auto config = example_config();
    CampaignPlan plan =
        make_plan("nominal", "urban", config, campaign_inputs_digest());
    plan.nodes[1].key ^= 1;  // a build that would produce different bytes
    try {
        verify_plan_keys(plan, campaign_inputs_digest());
        FAIL() << "key skew must be refused";
    } catch (const SchedError& error) {
        EXPECT_NE(std::string(error.what()).find("fleet-00001"),
                  std::string::npos)
            << error.what();
    }
}

TEST(Plan, UnknownPolicyOrOddIsRefused) {
    const auto config = example_config();
    CampaignPlan plan =
        make_plan("nominal", "urban", config, campaign_inputs_digest());
    plan.policy = "reckless";
    EXPECT_THROW((void)config_from_plan(plan), SchedError);
    plan.policy = "nominal";
    plan.odd = "lunar";
    EXPECT_THROW((void)config_from_plan(plan), SchedError);
}

TEST(Plan, CampaignDagHasTheDocumentedShape) {
    const auto config = example_config();
    const CampaignPlan plan =
        make_plan("nominal", "urban", config, campaign_inputs_digest());
    const Dag dag = build_campaign_dag(plan);
    EXPECT_EQ(dag.size(), plan.fleets + 3);
    EXPECT_EQ(dag.edge_count(), 2 * plan.fleets + 1);

    const auto generate = *dag.index_of(std::string(kGenerateNode));
    const auto aggregate = *dag.index_of(std::string(kAggregateNode));
    const auto verify = *dag.index_of(std::string(kVerifyNode));
    EXPECT_TRUE(dag.preds(generate).empty());
    EXPECT_EQ(dag.succs(verify).size(), 0u);
    EXPECT_EQ(dag.preds(aggregate).size(), plan.fleets);
    for (const PlanNode& node : plan.nodes) {
        const auto fleet = dag.index_of(plan_node_id(node.fleet_index));
        ASSERT_TRUE(fleet.has_value());
        EXPECT_DOUBLE_EQ(dag.weight(*fleet), plan.hours_per_fleet);
        EXPECT_EQ(dag.id(*fleet), plan_node_id(node.fleet_index));
        ASSERT_EQ(dag.preds(*fleet).size(), 1u);
        EXPECT_EQ(dag.preds(*fleet).front(), generate);
        ASSERT_EQ(dag.succs(*fleet).size(), 1u);
        EXPECT_EQ(dag.succs(*fleet).front(), aggregate);
    }
    // Every fleet node outranks the aggregate/verify tail, so dispatch
    // order works on fleets first.
    for (const PlanNode& node : plan.nodes) {
        const auto fleet = *dag.index_of(plan_node_id(node.fleet_index));
        EXPECT_GT(dag.level(fleet), dag.level(aggregate));
    }
}

}  // namespace
