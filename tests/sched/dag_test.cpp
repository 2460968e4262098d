// Work-DAG invariants: deterministic topology, critical-path levels,
// dispatch order, cycle rejection, and the hard/soft budget gate. The
// coordinator's dispatch decisions are a pure function of these, so they
// are pinned as unit properties instead of observed through process soup.
#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sched/dag.h"
#include "sched/ready_queue.h"

namespace {

using namespace qrn::sched;

/// The campaign spine with two fleet nodes of unequal weight:
/// generate -> {heavy, light} -> aggregate -> verify.
Dag diamond(double heavy_weight, double light_weight) {
    Dag dag;
    const auto generate = dag.add_node("generate", 1.0);
    const auto heavy = dag.add_node("fleet-00000", heavy_weight);
    const auto light = dag.add_node("fleet-00001", light_weight);
    const auto aggregate = dag.add_node("aggregate", 1.0);
    const auto verify = dag.add_node("verify", 1.0);
    dag.add_edge(generate, heavy);
    dag.add_edge(generate, light);
    dag.add_edge(heavy, aggregate);
    dag.add_edge(light, aggregate);
    dag.add_edge(aggregate, verify);
    dag.build();
    return dag;
}

TEST(Dag, TopoOrderIsDeterministicAndRespectsEdges) {
    const Dag dag = diamond(10.0, 2.0);
    const auto& topo = dag.topo_order();
    ASSERT_EQ(topo.size(), 5u);
    std::vector<std::size_t> position(topo.size());
    for (std::size_t at = 0; at < topo.size(); ++at) position[topo[at]] = at;
    for (std::size_t i = 0; i < dag.size(); ++i) {
        for (const std::size_t succ : dag.succs(i)) {
            EXPECT_LT(position[i], position[succ])
                << dag.node(i).id << " must precede " << dag.node(succ).id;
        }
    }
    // Kahn with smallest-index-first: the order is a pure function of the
    // graph, so two identical builds agree exactly.
    const Dag again = diamond(10.0, 2.0);
    EXPECT_EQ(topo, again.topo_order());
}

TEST(Dag, CriticalPathLevelsAreWeightPlusHeaviestChain) {
    const Dag dag = diamond(10.0, 2.0);
    const auto at = [&](const char* id) { return *dag.index_of(id); };
    EXPECT_DOUBLE_EQ(dag.level(at("verify")), 1.0);
    EXPECT_DOUBLE_EQ(dag.level(at("aggregate")), 2.0);
    EXPECT_DOUBLE_EQ(dag.level(at("fleet-00001")), 4.0);
    EXPECT_DOUBLE_EQ(dag.level(at("fleet-00000")), 12.0);
    EXPECT_DOUBLE_EQ(dag.level(at("generate")), 13.0);
}

TEST(Dag, ReadyQueuePopsCriticalPathFirstThenById) {
    const Dag dag = diamond(10.0, 2.0);
    ReadyQueue ready;
    for (const char* id : {"fleet-00001", "fleet-00000"}) {
        const auto i = *dag.index_of(id);
        ready.push(ReadyItem{i, dag.level(i), dag.node(i).id});
    }
    EXPECT_EQ(ready.pop().id, "fleet-00000");  // heavier chain first
    EXPECT_EQ(ready.pop().id, "fleet-00001");
    EXPECT_TRUE(ready.empty());
    EXPECT_THROW(ready.pop(), SchedError);

    // Equal priorities break by id, so dispatch order never depends on
    // push order or heap internals.
    ReadyQueue ties;
    ties.push(ReadyItem{0, 5.0, "fleet-00002"});
    ties.push(ReadyItem{1, 5.0, "fleet-00001"});
    ties.push(ReadyItem{2, 5.0, "fleet-00003"});
    EXPECT_EQ(ties.pop().id, "fleet-00001");
    EXPECT_EQ(ties.pop().id, "fleet-00002");
    EXPECT_EQ(ties.pop().id, "fleet-00003");
}

TEST(Dag, RejectsCyclesNamingAStableNode) {
    Dag dag;
    const auto a = dag.add_node("a");
    const auto b = dag.add_node("b");
    const auto c = dag.add_node("c");
    dag.add_edge(a, b);
    dag.add_edge(b, c);
    dag.add_edge(c, a);
    try {
        dag.build();
        FAIL() << "cycle must be rejected";
    } catch (const SchedError& error) {
        EXPECT_NE(std::string(error.what()).find("'a'"), std::string::npos)
            << error.what();
    }
}

TEST(Dag, RejectsMalformedConstruction) {
    Dag dag;
    EXPECT_THROW(dag.add_node(""), SchedError);
    const auto a = dag.add_node("a");
    EXPECT_THROW(dag.add_node("a"), SchedError);       // duplicate id
    EXPECT_THROW(dag.add_node("b", -1.0), SchedError); // negative weight
    EXPECT_THROW(dag.add_edge(a, a), SchedError);      // self-edge
    EXPECT_THROW(dag.add_edge(a, 99), SchedError);     // out of range
    EXPECT_THROW(dag.level(a), SchedError);            // query before build
    // Rejected nodes leave no trace in the id index.
    EXPECT_EQ(dag.size(), 1u);
    EXPECT_EQ(dag.index_of("a"), a);
    EXPECT_FALSE(dag.index_of("b").has_value());
    EXPECT_FALSE(dag.index_of("").has_value());
}

TEST(Dag, DuplicateEdgesStoreOnce) {
    Dag dag;
    const auto a = dag.add_node("a");
    const auto b = dag.add_node("b");
    dag.add_edge(a, b);
    dag.add_edge(a, b);
    EXPECT_EQ(dag.edge_count(), 1u);

    // The campaign hub shape: the duplicate check probes the shorter of
    // succs(from) and preds(to), so re-adding edges must be caught from
    // either side - a fleet's short preds for generate -> fleet, its short
    // succs for fleet -> aggregate, and the hubs' long lists when the
    // fleet side is the longer one.
    Dag hub;
    const auto generate = hub.add_node("generate");
    const auto aggregate = hub.add_node("aggregate");
    std::vector<std::size_t> fleets;
    for (int i = 0; i < 1000; ++i) {
        const auto fleet = hub.add_node("fleet-" + std::to_string(i));
        hub.add_edge(generate, fleet);
        hub.add_edge(fleet, aggregate);
        fleets.push_back(fleet);
    }
    ASSERT_EQ(hub.edge_count(), 2000u);
    const std::vector<std::size_t> out_before = hub.succs(generate);
    const std::vector<std::size_t> in_before = hub.preds(aggregate);
    EXPECT_EQ(out_before, fleets);  // insertion order, not sorted or hashed
    EXPECT_EQ(in_before, fleets);
    for (const std::size_t fleet : fleets) {
        hub.add_edge(generate, fleet);   // probes preds(fleet): 1 entry
        hub.add_edge(fleet, aggregate);  // probes succs(fleet): 1 entry
    }
    // Grow one fleet's lists past the hubs' so the long side is probed.
    const auto busy = fleets.front();
    for (int i = 0; i < 1001; ++i) {
        hub.add_edge(hub.add_node("before-" + std::to_string(i)), busy);
        hub.add_edge(busy, hub.add_node("after-" + std::to_string(i)));
    }
    const std::size_t edges = hub.edge_count();
    hub.add_edge(generate, busy);   // preds(busy) now longer than succs(generate)
    hub.add_edge(busy, aggregate);  // succs(busy) now longer than preds(aggregate)
    EXPECT_EQ(hub.edge_count(), edges);
    EXPECT_EQ(edges, 2000u + 2 * 1001u);
    EXPECT_EQ(hub.succs(generate), out_before);
    EXPECT_EQ(hub.preds(aggregate), in_before);
    hub.build();  // still acyclic
}

TEST(DagMetrics, TopOffendersMatchAFullSort) {
    // Tied degrees, ids added out of sorted order: the top-K lists must be
    // exactly the first K of a full sort by (degree desc, id asc).
    Dag dag;
    std::vector<std::size_t> at;
    for (const char* id : {"m", "c", "x", "a", "q", "b", "z", "k"}) {
        at.push_back(dag.add_node(id));
    }
    // Out-degree 3: m, c, a. In-degree 3: q, z, k.
    for (const auto& [from, to] : std::vector<std::pair<std::size_t, std::size_t>>{
             {0, 4}, {0, 5}, {0, 6}, {1, 4}, {1, 5}, {1, 7},
             {3, 4}, {3, 6}, {3, 7}, {2, 6}, {5, 7}}) {
        dag.add_edge(at[from], at[to]);
    }
    dag.build();

    using Row = std::pair<std::string, std::size_t>;
    const auto rows = [](const std::vector<DagMetrics::Offender>& offenders) {
        std::vector<Row> out;
        for (const auto& o : offenders) out.emplace_back(o.id, o.degree);
        return out;
    };
    const auto full_sort = [&](bool fanout, std::size_t k) {
        std::vector<Row> all;
        for (std::size_t i = 0; i < dag.size(); ++i) {
            all.emplace_back(dag.node(i).id,
                             fanout ? dag.succs(i).size() : dag.preds(i).size());
        }
        std::sort(all.begin(), all.end(), [](const Row& a, const Row& b) {
            if (a.second != b.second) return a.second > b.second;
            return a.first < b.first;
        });
        all.resize(std::min(k, all.size()));
        return all;
    };
    const std::size_t n = dag.size();
    for (const std::size_t k : {std::size_t{0}, std::size_t{3}, n, n + 5}) {
        const DagMetrics metrics = compute_metrics(dag, k);
        EXPECT_EQ(rows(metrics.top_fanout), full_sort(true, k)) << "top_k " << k;
        EXPECT_EQ(rows(metrics.top_fanin), full_sort(false, k)) << "top_k " << k;
    }
    const std::vector<Row> want{{"a", 3}, {"c", 3}, {"m", 3}};
    EXPECT_EQ(rows(compute_metrics(dag, 3).top_fanout), want);
}

TEST(DagBudget, HardLimitFailsSoftLimitWarns) {
    const Dag dag = diamond(10.0, 2.0);
    const DagMetrics metrics = compute_metrics(dag);
    EXPECT_EQ(metrics.node_count, 5u);
    EXPECT_EQ(metrics.edge_count, 5u);
    EXPECT_EQ(metrics.max_depth, 4u);  // generate -> fleet -> agg -> verify
    EXPECT_EQ(metrics.fanout_peak, 2u);
    EXPECT_EQ(metrics.fanin_peak, 2u);
    EXPECT_DOUBLE_EQ(metrics.critical_path_weight, 13.0);
    const std::vector<std::string> want{"generate", "fleet-00000", "aggregate",
                                        "verify"};
    EXPECT_EQ(metrics.critical_path, want);

    DagBudget hard;
    hard.node_count_hard = 3;
    const BudgetCheck failed = check_budget(metrics, hard);
    EXPECT_FALSE(failed.passed);
    EXPECT_NE(failed.diagnostics.find("over budget"), std::string::npos);
    EXPECT_NE(failed.diagnostics.find("node count 5 > hard limit 3"),
              std::string::npos)
        << failed.diagnostics;

    DagBudget soft;
    soft.node_count_soft = 3;
    const BudgetCheck warned = check_budget(metrics, soft);
    EXPECT_TRUE(warned.passed);
    EXPECT_TRUE(warned.has_warnings);
    EXPECT_NE(warned.diagnostics.find("warning"), std::string::npos);

    // Zero limits mean "no limit": the default-constructed budget passes
    // everything silently.
    const BudgetCheck open = check_budget(metrics, DagBudget{});
    EXPECT_TRUE(open.passed);
    EXPECT_TRUE(open.diagnostics.empty());
}

TEST(DagBudget, CampaignDefaultAdmitsTheLargestCliCampaign) {
    // --fleets caps at 100000; the campaign DAG adds a 3-node spine and
    // two edges per fleet. The default budget must admit exactly that.
    DagMetrics metrics;
    metrics.node_count = 100003;
    metrics.edge_count = 200001;
    metrics.max_depth = 4;
    metrics.fanout_peak = 100000;
    EXPECT_TRUE(check_budget(metrics, DagBudget::campaign_default()).passed);
    metrics.node_count = 100004;
    EXPECT_FALSE(check_budget(metrics, DagBudget::campaign_default()).passed);
}

}  // namespace
