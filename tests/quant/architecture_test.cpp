// Architecture DAG evaluation and budget refinement.
#include "quant/architecture.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn::quant {
namespace {

TEST(ArchNode, LeafEvaluatesToItsRate) {
    const auto leaf = ArchNode::element("camera", Frequency::per_hour(1e-4),
                                        CauseCategory::PerformanceLimitation);
    EXPECT_DOUBLE_EQ(leaf->evaluate().per_hour_value(), 1e-4);
    EXPECT_TRUE(leaf->is_leaf());
}

TEST(ArchNode, OrGateAddsChildren) {
    std::vector<std::unique_ptr<ArchNode>> kids;
    kids.push_back(ArchNode::element("a", Frequency::per_hour(1e-6)));
    kids.push_back(ArchNode::element("b", Frequency::per_hour(2e-6)));
    const auto node = ArchNode::any_of("pipeline", std::move(kids));
    EXPECT_NEAR(node->evaluate().per_hour_value(), 3e-6, 1e-18);
}

TEST(ArchNode, AndGateMultipliesWithWindow) {
    std::vector<std::unique_ptr<ArchNode>> kids;
    kids.push_back(ArchNode::element("a", Frequency::per_hour(1e-3)));
    kids.push_back(ArchNode::element("b", Frequency::per_hour(1e-3)));
    const auto node = ArchNode::all_of("redundant pair", std::move(kids), 1.0);
    EXPECT_NEAR(node->evaluate().per_hour_value(), 2e-6, 1e-15);
}

TEST(ArchNode, NestedComposition) {
    // (a AND b) OR c: the paper's redundant-sensing-plus-monitor shape.
    std::vector<std::unique_ptr<ArchNode>> pair;
    pair.push_back(ArchNode::element("camera", Frequency::per_hour(1e-3)));
    pair.push_back(ArchNode::element("lidar", Frequency::per_hour(1e-3)));
    std::vector<std::unique_ptr<ArchNode>> top;
    top.push_back(ArchNode::all_of("sensing", std::move(pair), 1.0));
    top.push_back(ArchNode::element("arbiter", Frequency::per_hour(1e-8)));
    const auto node = ArchNode::any_of("drivable area", std::move(top));
    EXPECT_NEAR(node->evaluate().per_hour_value(), 2e-6 + 1e-8, 1e-15);
}

TEST(ArchNode, KofNSynthetic) {
    const auto node = ArchNode::k_of_n("voting", 2, 3, Frequency::per_hour(1e-3), 1.0);
    EXPECT_NEAR(node->evaluate().per_hour_value(), 6e-6, 1e-15);
    EXPECT_EQ(node->leaf_contributions().size(), 3u);
}

TEST(ArchNode, LeafContributionsCollectCauses) {
    std::vector<std::unique_ptr<ArchNode>> kids;
    kids.push_back(ArchNode::element("sw", Frequency::per_hour(1e-6),
                                     CauseCategory::SystematicDesign));
    kids.push_back(ArchNode::element("hw", Frequency::per_hour(2e-6),
                                     CauseCategory::RandomHardware));
    const auto node = ArchNode::any_of("block", std::move(kids));
    const auto contributions = node->leaf_contributions();
    ASSERT_EQ(contributions.size(), 2u);
    EXPECT_EQ(contributions[0].cause, CauseCategory::SystematicDesign);
    EXPECT_EQ(contributions[1].cause, CauseCategory::RandomHardware);
    EXPECT_DOUBLE_EQ(contributions[0].rate.per_hour_value(), 1e-6);
    EXPECT_DOUBLE_EQ(contributions[1].rate.per_hour_value(), 2e-6);
}

TEST(ArchNode, RenderShowsStructure) {
    std::vector<std::unique_ptr<ArchNode>> kids;
    kids.push_back(ArchNode::element("a", Frequency::per_hour(1e-6)));
    kids.push_back(ArchNode::element("b", Frequency::per_hour(1e-6)));
    const auto node = ArchNode::all_of("pair", std::move(kids), 0.5);
    const auto text = node->render();
    EXPECT_NE(text.find("pair"), std::string::npos);
    EXPECT_NE(text.find("AND"), std::string::npos);
    EXPECT_NE(text.find("  a"), std::string::npos);
}

TEST(ArchNode, ConstructionDomain) {
    EXPECT_THROW(ArchNode::element("", Frequency::per_hour(1e-6)), std::invalid_argument);
    EXPECT_THROW(ArchNode::any_of("x", {}), std::invalid_argument);
    std::vector<std::unique_ptr<ArchNode>> one;
    one.push_back(ArchNode::element("a", Frequency::per_hour(1e-6)));
    EXPECT_THROW(ArchNode::all_of("x", std::move(one), 1.0), std::invalid_argument);
    EXPECT_THROW(ArchNode::k_of_n("x", 0, 3, Frequency::per_hour(1e-6), 1.0),
                 std::invalid_argument);
}

TEST(Elasticity, SeriesElementsHaveProportionalImportance) {
    std::vector<std::unique_ptr<ArchNode>> kids;
    kids.push_back(ArchNode::element("big", Frequency::per_hour(9e-6)));
    kids.push_back(ArchNode::element("small", Frequency::per_hour(1e-6)));
    const auto top = ArchNode::any_of("top", std::move(kids));
    const auto ranking = leaf_elasticities(*top);
    ASSERT_EQ(ranking.size(), 2u);
    EXPECT_EQ(ranking[0].name, "big");
    // d ln Top / d ln lambda = share of the series sum.
    EXPECT_NEAR(ranking[0].elasticity, 0.9, 1e-3);
    EXPECT_NEAR(ranking[1].elasticity, 0.1, 1e-3);
}

TEST(Elasticity, RedundantChannelHasAmplifiedElasticity) {
    // Top = OR(k_of_n(1-of-2, lambda), arbiter). The shared channel rate
    // enters quadratically, so its elasticity approaches 2 x its share.
    std::vector<std::unique_ptr<ArchNode>> kids;
    kids.push_back(ArchNode::k_of_n("sensing", 1, 2, Frequency::per_hour(1e-3), 1.0));
    kids.push_back(ArchNode::element("arbiter", Frequency::per_hour(2e-6)));
    const auto top = ArchNode::any_of("top", std::move(kids));
    // sensing contributes 2e-6, arbiter 2e-6: equal shares.
    const auto ranking = leaf_elasticities(*top);
    ASSERT_EQ(ranking.size(), 2u);
    EXPECT_EQ(ranking[0].name, "sensing");
    EXPECT_NEAR(ranking[0].elasticity, 1.0, 1e-2);  // 2 (quadratic) x 0.5 share
    EXPECT_NEAR(ranking[1].elasticity, 0.5, 1e-2);
}

TEST(Elasticity, EvaluateWithScaledMatchesDirectRebuild) {
    std::vector<std::unique_ptr<ArchNode>> pair;
    pair.push_back(ArchNode::element("a", Frequency::per_hour(1e-3)));
    pair.push_back(ArchNode::element("b", Frequency::per_hour(2e-3)));
    const auto top = ArchNode::all_of("pair", std::move(pair), 0.5);
    const ArchNode* a = top->children().front().get();
    // Doubling a's rate doubles the AND-gate product.
    EXPECT_NEAR(top->evaluate_with_scaled(a, 2.0).per_hour_value(),
                2.0 * top->evaluate().per_hour_value(), 1e-15);
    EXPECT_THROW((void)top->evaluate_with_scaled(nullptr, 2.0), std::invalid_argument);
    const auto stranger = ArchNode::element("x", Frequency::per_hour(1e-6));
    EXPECT_THROW((void)top->evaluate_with_scaled(stranger.get(), 2.0),
                 std::invalid_argument);
    EXPECT_THROW((void)top->evaluate_with_scaled(a, -1.0), std::invalid_argument);
}

TEST(Elasticity, RequiresPositiveTopRate) {
    const auto zero = ArchNode::element("z", Frequency::per_hour(0.0));
    EXPECT_THROW(leaf_elasticities(*zero), std::invalid_argument);
}

TEST(MinimalCutSets, SeriesGivesSingletons) {
    std::vector<std::unique_ptr<ArchNode>> kids;
    kids.push_back(ArchNode::element("a", Frequency::per_hour(1e-6)));
    kids.push_back(ArchNode::element("b", Frequency::per_hour(1e-6)));
    const auto top = ArchNode::any_of("top", std::move(kids));
    const auto cuts = minimal_cut_sets(*top);
    ASSERT_EQ(cuts.size(), 2u);
    EXPECT_EQ(cuts[0], CutSet{"a"});
    EXPECT_EQ(cuts[1], CutSet{"b"});
}

TEST(MinimalCutSets, RedundantPairGivesOneDoubleSet) {
    std::vector<std::unique_ptr<ArchNode>> pair;
    pair.push_back(ArchNode::element("a", Frequency::per_hour(1e-3)));
    pair.push_back(ArchNode::element("b", Frequency::per_hour(1e-3)));
    const auto top = ArchNode::all_of("pair", std::move(pair), 1.0);
    const auto cuts = minimal_cut_sets(*top);
    ASSERT_EQ(cuts.size(), 1u);
    EXPECT_EQ(cuts[0], (CutSet{"a", "b"}));
}

TEST(MinimalCutSets, NestedStructureOrdersSinglePointsFirst) {
    // (a AND b) OR arbiter: the arbiter is a single point of failure.
    std::vector<std::unique_ptr<ArchNode>> pair;
    pair.push_back(ArchNode::element("a", Frequency::per_hour(1e-3)));
    pair.push_back(ArchNode::element("b", Frequency::per_hour(1e-3)));
    std::vector<std::unique_ptr<ArchNode>> top_kids;
    top_kids.push_back(ArchNode::all_of("sensing", std::move(pair), 1.0));
    top_kids.push_back(ArchNode::element("arbiter", Frequency::per_hour(1e-8)));
    const auto top = ArchNode::any_of("top", std::move(top_kids));
    const auto cuts = minimal_cut_sets(*top);
    ASSERT_EQ(cuts.size(), 2u);
    EXPECT_EQ(cuts[0], CutSet{"arbiter"});
    EXPECT_EQ(cuts[1], (CutSet{"a", "b"}));
}

TEST(MinimalCutSets, KofNEnumeratesChannelCombinations) {
    // 2-of-3 good: any 2 simultaneous failures violate -> C(3,2) = 3 sets.
    const auto voting = ArchNode::k_of_n("s", 2, 3, Frequency::per_hour(1e-3), 1.0);
    const auto cuts = minimal_cut_sets(*voting);
    ASSERT_EQ(cuts.size(), 3u);
    EXPECT_EQ(cuts[0], (CutSet{"s[1]", "s[2]"}));
    EXPECT_EQ(cuts[2], (CutSet{"s[2]", "s[3]"}));
    // 1-of-3: all three must fail -> one set of size 3.
    const auto all = ArchNode::k_of_n("s", 1, 3, Frequency::per_hour(1e-3), 1.0);
    EXPECT_EQ(minimal_cut_sets(*all).size(), 1u);
    EXPECT_EQ(minimal_cut_sets(*all)[0].size(), 3u);
}

TEST(MinimalCutSets, SupersetsAreDropped) {
    // top = OR(a, AND(a, b)): the {a, b} set is dominated by {a}.
    std::vector<std::unique_ptr<ArchNode>> pair;
    pair.push_back(ArchNode::element("a", Frequency::per_hour(1e-3)));
    pair.push_back(ArchNode::element("b", Frequency::per_hour(1e-3)));
    std::vector<std::unique_ptr<ArchNode>> kids;
    kids.push_back(ArchNode::element("a", Frequency::per_hour(1e-3)));
    kids.push_back(ArchNode::all_of("and", std::move(pair), 1.0));
    const auto top = ArchNode::any_of("top", std::move(kids));
    const auto cuts = minimal_cut_sets(*top);
    ASSERT_EQ(cuts.size(), 1u);
    EXPECT_EQ(cuts[0], CutSet{"a"});
}

TEST(BudgetSplit, EqualSeriesSplit) {
    const auto per_element = equal_series_split(Frequency::per_hour(1e-8), 1000);
    EXPECT_NEAR(per_element.per_hour_value(), 1e-11, 1e-22);
    // Recombining the split budget exactly meets the goal budget.
    EXPECT_NEAR((per_element * 1000.0).per_hour_value(), 1e-8, 1e-20);
    EXPECT_THROW(equal_series_split(Frequency::per_hour(1e-8), 0), std::invalid_argument);
}

}  // namespace
}  // namespace qrn::quant
