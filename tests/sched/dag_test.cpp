// Work-DAG invariants: deterministic topology, critical-path levels,
// dispatch order, cycle rejection, and the hard/soft budget gate. The
// coordinator's dispatch decisions are a pure function of these, so they
// are pinned as unit properties instead of observed through process soup.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sched/dag.h"
#include "stats/rng.h"

namespace {

using namespace qrn::sched;

std::vector<std::size_t> as_vector(std::span<const std::uint32_t> list) {
    return {list.begin(), list.end()};
}

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
                << dag.id(i) << " must precede " << dag.id(succ);
        }
    }
    // FIFO Kahn: sources in index order, then each node as its last
    // predecessor is dequeued. The order is a pure function of the graph,
    // so two identical builds agree exactly.
    const std::vector<std::size_t> want{0, 1, 2, 3, 4};
    EXPECT_EQ(as_vector(topo), want);
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
    // The frozen graph's queries need build().
    EXPECT_THROW(dag.level(a), SchedError);
    EXPECT_THROW((void)dag.succs(a), SchedError);
    EXPECT_THROW((void)dag.preds(a), SchedError);
    EXPECT_THROW((void)dag.edge_count(), SchedError);
    EXPECT_THROW((void)dag.topo_order(), SchedError);
    // Rejected nodes leave no trace in the id index or the id arena.
    EXPECT_EQ(dag.size(), 1u);
    EXPECT_EQ(dag.id(a), "a");
    EXPECT_THROW((void)dag.id(1), std::out_of_range);
    EXPECT_THROW((void)dag.weight(1), std::out_of_range);
    EXPECT_EQ(dag.index_of("a"), a);
    EXPECT_FALSE(dag.index_of("b").has_value());
    EXPECT_FALSE(dag.index_of("").has_value());
}

TEST(Dag, IndicesPastThirtyTwoBitsAreRejectedBeforeAllocating) {
    // Every stored index is 32 bits wide; id-index slots hold index + 1.
    static_assert(Dag::kMaxNodes == 0xFFFF'FFFEu && Dag::kMaxEdges == 0xFFFF'FFFFu);
    // reserve() checks its counts before it allocates: asking for 2^32
    // nodes or 2^32 edges throws instead of reaching for tens of GB.
    constexpr std::size_t past = std::size_t{1} << 32;
    Dag dag;
    EXPECT_THROW(dag.reserve(past), SchedError);
    EXPECT_THROW(dag.reserve(0, past), SchedError);
    EXPECT_THROW(dag.reserve(0, 0, past), SchedError);
    // The graph is untouched and still usable.
    EXPECT_EQ(dag.size(), 0u);
    EXPECT_FALSE(dag.index_of("a").has_value());
    dag.reserve(2, 1, 2);
    const auto a = dag.add_node("a");
    const auto b = dag.add_node("b");
    dag.add_edge(a, b);
    dag.build();
    EXPECT_EQ(dag.edge_count(), 1u);
    EXPECT_EQ(as_vector(dag.succs(a)), std::vector<std::size_t>{b});
}

TEST(Dag, DuplicateEdgesStoreOnce) {
    Dag dag;
    const auto a = dag.add_node("a");
    const auto b = dag.add_node("b");
    dag.add_edge(a, b);
    dag.add_edge(a, b);
    dag.build();
    EXPECT_EQ(dag.edge_count(), 1u);
    EXPECT_EQ(as_vector(dag.succs(a)), std::vector<std::size_t>{b});
    EXPECT_EQ(as_vector(dag.preds(b)), std::vector<std::size_t>{a});

    // The campaign hub shape, with every edge added twice: once while the
    // hubs' lists are short and once more after one fleet's own lists have
    // grown past the hubs', so repeats arrive with either side the longer.
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
    for (const std::size_t fleet : fleets) {
        hub.add_edge(generate, fleet);
        hub.add_edge(fleet, aggregate);
    }
    const auto busy = fleets.front();
    std::vector<std::size_t> before;
    std::vector<std::size_t> after;
    for (int i = 0; i < 1001; ++i) {
        before.push_back(hub.add_node("before-" + std::to_string(i)));
        hub.add_edge(before.back(), busy);
        after.push_back(hub.add_node("after-" + std::to_string(i)));
        hub.add_edge(busy, after.back());
    }
    hub.add_edge(generate, busy);   // preds(busy) now longer than succs(generate)
    hub.add_edge(busy, aggregate);  // succs(busy) now longer than preds(aggregate)
    hub.build();  // still acyclic
    EXPECT_EQ(hub.edge_count(), 2000u + 2 * 1001u);
    // Insertion order of each edge's first occurrence, not sorted or hashed.
    EXPECT_EQ(as_vector(hub.succs(generate)), fleets);
    EXPECT_EQ(as_vector(hub.preds(aggregate)), fleets);
    before.insert(before.begin(), generate);
    after.insert(after.begin(), aggregate);
    EXPECT_EQ(as_vector(hub.preds(busy)), before);
    EXPECT_EQ(as_vector(hub.succs(busy)), after);
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
            all.emplace_back(dag.id(i),
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

/// One node as it is fed to a Dag.
struct NodeSpec {
    std::string id;
    double weight = 1.0;
};

/// One random graph as it is fed to a Dag: nodes in add order, edges in
/// add order (repeats and cycles included).
struct GraphSpec {
    std::vector<NodeSpec> nodes;
    std::vector<std::pair<std::size_t, std::size_t>> edges;
};

/// Up to 200 nodes whose ids are added out of sorted order, edges that
/// respect a hidden rank order, repeats of earlier edges (so hub lists and
/// leaf lists both see them), and now and then a planted cycle.
GraphSpec random_graph(qrn::stats::Rng& rng) {
    GraphSpec g;
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 200));
    const auto pick = [&](std::size_t below) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(below) - 1));
    };
    const auto shuffled = [&] {
        std::vector<std::size_t> order(n);
        for (std::size_t i = 0; i < n; ++i) order[i] = i;
        for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[pick(i)]);
        return order;
    };
    // Names that sort neither like indices nor like numbers ("v10" < "v2"),
    // sometimes too long for the string's inline buffer.
    const std::string prefix = rng.bernoulli(0.2) ? "a-much-longer-node-identifier-" : "v";
    for (const std::size_t name : shuffled()) {
        // Small integer weights make level ties, which the critical path
        // breaks by id.
        const double weight = rng.bernoulli(0.5)
                                  ? static_cast<double>(rng.uniform_int(0, 3))
                                  : rng.uniform(0.0, 5.0);
        g.nodes.push_back({prefix + std::to_string(name), weight});
    }
    const std::vector<std::size_t> rank = shuffled();
    const auto forward = [&](std::size_t a, std::size_t b) {
        if (rank[a] > rank[b]) std::swap(a, b);
        return std::pair{a, b};
    };
    if (n >= 2) {
        const std::size_t edges = pick(3 * n + 1);
        for (std::size_t e = 0; e < edges; ++e) {
            const std::size_t a = pick(n);
            const std::size_t b = pick(n);
            if (a != b) g.edges.push_back(forward(a, b));
        }
        // A hub wired to many nodes, on either end of its edges.
        if (rng.bernoulli(0.3)) {
            const std::size_t hub = pick(n);
            for (std::size_t other = 0; other < n; ++other) {
                if (other != hub && rng.bernoulli(0.6)) g.edges.push_back(forward(hub, other));
            }
        }
        const std::size_t repeats = g.edges.empty() ? 0 : pick(g.edges.size() + 1);
        for (std::size_t r = 0; r < repeats; ++r) g.edges.push_back(g.edges[pick(g.edges.size())]);
        if (rng.bernoulli(0.15)) {
            // A planted cycle through 2..5 distinct nodes.
            const std::vector<std::size_t> order = shuffled();
            const std::size_t length = std::min<std::size_t>(n, 2 + pick(4));
            for (std::size_t k = 0; k < length; ++k) {
                g.edges.emplace_back(order[k], order[(k + 1) % length]);
            }
        }
    }
    return g;
}

Dag make_dag(const GraphSpec& g) {
    Dag dag;
    for (const NodeSpec& node : g.nodes) dag.add_node(node.id, node.weight);
    for (const auto& [from, to] : g.edges) dag.add_edge(from, to);
    return dag;
}

TEST(Dag, FrozenGraphMatchesANaiveReference) {
    qrn::stats::Rng rng(0x5eedda6);
    std::size_t cyclic = 0;
    std::size_t long_ids = 0;    // trials with an id past 15 bytes
    std::size_t prefixes = 0;    // trials with an id that prefixes another
    std::size_t nul_bytes = 0;   // trials with an id holding a NUL byte
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        GraphSpec g = random_graph(rng);
        const std::size_t n = g.nodes.size();
        const auto id = [&](std::size_t i) { return g.nodes[i].id; };
        // Every third trial, the largest id gets an embedded NUL byte and
        // a tail. It stays the largest, so it never names a cycle (the
        // diagnostic is a C string), and the arena must not stop at it.
        std::string truncated;
        if (trial % 3 == 0) {
            auto& largest = *std::max_element(
                g.nodes.begin(), g.nodes.end(),
                [](const NodeSpec& a, const NodeSpec& b) { return a.id < b.id; });
            truncated = largest.id;
            largest.id += std::string("\0tail", 5);
        }
        std::vector<std::string> sorted_ids;
        for (const NodeSpec& node : g.nodes) sorted_ids.push_back(node.id);
        std::sort(sorted_ids.begin(), sorted_ids.end());
        long_ids += std::any_of(sorted_ids.begin(), sorted_ids.end(),
                                [](const std::string& s) { return s.size() > 15; })
                        ? 1
                        : 0;
        for (std::size_t k = 0; k + 1 < n; ++k) {
            if (sorted_ids[k + 1].starts_with(sorted_ids[k])) {
                ++prefixes;
                break;
            }
        }
        nul_bytes += truncated.empty() ? 0 : 1;
        // Every id and weight round-trips through the arena, bit for bit,
        // and every id finds its own index.
        const auto expect_arena = [&](const Dag& dag) {
            ASSERT_EQ(dag.size(), n);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(dag.id(i), id(i));
                EXPECT_EQ(std::bit_cast<std::uint64_t>(dag.weight(i)),
                          std::bit_cast<std::uint64_t>(g.nodes[i].weight))
                    << id(i);
                EXPECT_EQ(dag.index_of(id(i)), i);
            }
            if (!truncated.empty()) {
                EXPECT_FALSE(dag.index_of(truncated).has_value());
            }
        };

        // Distinct edges, each list in the order of its first occurrence.
        std::set<std::pair<std::size_t, std::size_t>> distinct;
        std::vector<std::vector<std::size_t>> succs(n);
        std::vector<std::vector<std::size_t>> preds(n);
        for (const auto& [from, to] : g.edges) {
            if (!distinct.insert({from, to}).second) continue;
            succs[from].push_back(to);
            preds[to].push_back(from);
        }

        // The nodes no topological order can reach: peel nodes whose
        // predecessors are all peeled until nothing changes.
        std::vector<bool> peeled(n, false);
        for (bool changed = true; changed;) {
            changed = false;
            for (std::size_t i = 0; i < n; ++i) {
                if (peeled[i]) continue;
                if (std::all_of(preds[i].begin(), preds[i].end(),
                                [&](std::size_t p) { return peeled[p]; })) {
                    peeled[i] = true;
                    changed = true;
                }
            }
        }

        Dag dag = make_dag(g);
        expect_arena(dag);
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(dag.index_of(id(i)), i);
        for (const std::string& absent :
             {std::string(), std::string("v"), std::string("w0"), g.nodes[0].id + "x",
              g.nodes[0].id.substr(0, g.nodes[0].id.size() - 1) + "/", std::string("v") +
              std::to_string(n)}) {
            EXPECT_FALSE(dag.index_of(absent).has_value()) << absent;
        }

        if (std::find(peeled.begin(), peeled.end(), false) != peeled.end()) {
            ++cyclic;
            std::string worst;
            for (std::size_t i = 0; i < n; ++i) {
                if (!peeled[i] && (worst.empty() || id(i) < worst)) worst = id(i);
            }
            for (int attempt = 0; attempt < 2; ++attempt) {
                try {
                    dag.build();
                    ADD_FAILURE() << "cycle must be rejected";
                } catch (const SchedError& error) {
                    EXPECT_NE(std::string(error.what()).find("'" + worst + "'"),
                              std::string::npos)
                        << error.what();
                }
                EXPECT_THROW((void)dag.edge_count(), SchedError);  // still unbuilt
            }
            expect_arena(dag);
            continue;
        }

        dag.build();
        ASSERT_EQ(dag.size(), n);
        expect_arena(dag);
        EXPECT_EQ(dag.edge_count(), distinct.size());
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(as_vector(dag.succs(i)), succs[i]) << id(i);
            EXPECT_EQ(as_vector(dag.preds(i)), preds[i]) << id(i);
            EXPECT_EQ(dag.index_of(id(i)), i);
        }

        // The documented order: FIFO Kahn, sources in index order, then
        // successors in list order. It respects every edge and a second
        // build of the same input repeats it.
        std::vector<std::size_t> want_topo;
        std::vector<std::size_t> waiting(n);
        for (std::size_t i = 0; i < n; ++i) {
            waiting[i] = preds[i].size();
            if (waiting[i] == 0) want_topo.push_back(i);
        }
        for (std::size_t head = 0; head < want_topo.size(); ++head) {
            for (const std::size_t succ : succs[want_topo[head]]) {
                if (--waiting[succ] == 0) want_topo.push_back(succ);
            }
        }
        const std::vector<std::size_t> topo = as_vector(dag.topo_order());
        EXPECT_EQ(topo, want_topo);
        std::vector<std::size_t> position(n, n);
        for (std::size_t at = 0; at < topo.size(); ++at) position[topo[at]] = at;
        for (const auto& [from, to] : distinct) EXPECT_LT(position[from], position[to]);
        Dag again = make_dag(g);
        again.build();
        EXPECT_EQ(as_vector(again.topo_order()), topo);

        // Levels and depths by memoized depth-first search.
        std::vector<double> level(n, -1.0);
        std::vector<std::size_t> depth(n, 0);
        const auto visit = [&](const auto& self, std::size_t i) -> void {
            if (depth[i] != 0) return;
            double below = 0.0;
            std::size_t deepest = 0;
            for (const std::size_t succ : succs[i]) {
                self(self, succ);
                below = std::max(below, level[succ]);
                deepest = std::max(deepest, depth[succ]);
            }
            level[i] = g.nodes[i].weight + below;
            depth[i] = deepest + 1;
        };
        for (std::size_t i = 0; i < n; ++i) visit(visit, i);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(dag.level(i)),
                      std::bit_cast<std::uint64_t>(level[i]))
                << id(i) << ": " << dag.level(i) << " vs " << level[i];
        }

        // compute_metrics against its definition, with full sorts.
        using Row = std::pair<std::string, std::size_t>;
        const auto top = [&](const std::vector<std::vector<std::size_t>>& lists,
                             std::size_t k) {
            std::vector<Row> all;
            for (std::size_t i = 0; i < n; ++i) all.emplace_back(id(i), lists[i].size());
            std::sort(all.begin(), all.end(), [](const Row& a, const Row& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
            });
            all.resize(std::min(k, all.size()));
            return all;
        };
        const auto rows = [](const std::vector<DagMetrics::Offender>& offenders) {
            std::vector<Row> out;
            for (const auto& o : offenders) out.emplace_back(o.id, o.degree);
            return out;
        };
        // The heaviest of `candidates` by (level desc, id asc).
        const auto heaviest = [&](std::vector<std::size_t> candidates) {
            std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
                if (level[a] != level[b]) return level[a] > level[b];
                return id(a) < id(b);
            });
            return candidates.front();
        };
        std::vector<std::size_t> sources;
        for (std::size_t i = 0; i < n; ++i) {
            if (preds[i].empty()) sources.push_back(i);
        }
        std::vector<std::string> path;
        for (std::size_t at = heaviest(sources);; at = heaviest(succs[at])) {
            path.push_back(id(at));
            if (succs[at].empty()) break;
        }
        const auto max_size = [&](const std::vector<std::vector<std::size_t>>& lists) {
            std::size_t peak = 0;
            for (const auto& list : lists) peak = std::max(peak, list.size());
            return peak;
        };
        for (const std::size_t k : {std::size_t{5}, n}) {
            const DagMetrics m = compute_metrics(dag, k);
            EXPECT_EQ(m.node_count, n);
            EXPECT_EQ(m.edge_count, distinct.size());
            EXPECT_EQ(m.max_depth, *std::max_element(depth.begin(), depth.end()));
            EXPECT_EQ(m.fanout_peak, max_size(succs));
            EXPECT_EQ(m.fanin_peak, max_size(preds));
            EXPECT_EQ(rows(m.top_fanout), top(succs, k));
            EXPECT_EQ(rows(m.top_fanin), top(preds, k));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(m.critical_path_weight),
                      std::bit_cast<std::uint64_t>(level[heaviest(sources)]));
            EXPECT_EQ(m.critical_path, path);
        }
    }
    // The seed must exercise both outcomes, and every kind of id.
    EXPECT_GT(cyclic, 10u);
    EXPECT_LT(cyclic, 100u);
    EXPECT_GT(long_ids, 10u);
    EXPECT_GT(prefixes, 10u);
    EXPECT_GT(nul_bytes, 10u);
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
