// The campaign work DAG: nodes with weights, dependency edges,
// deterministic topological order and critical-path levels.
//
// A distributed campaign is compiled into this graph (sched/plan.h builds
// the concrete generate -> simulate-fleet-i -> aggregate -> verify shape)
// and the coordinator dispatches READY nodes in descending critical-path
// order: the node whose remaining chain to the sink is longest goes first,
// so stragglers on the critical path never wait behind bulk work. The
// representation follows the artidoro scheduling exemplar (dag.h adjacency
// + indegree, levels as longest-path-to-sink weights); the hard/soft
// budget machinery follows the ranking-dsl complexity-budget exemplar
// (SNIPPETS.md #3): hard limits reject the plan outright (CLI exit 1),
// soft limits warn with top-offender diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace qrn::sched {

/// A scheduling-layer contract violation: duplicate or unknown node ids,
/// edges out of range, a cyclic graph, a malformed or mismatched plan.
/// The CLI maps it to exit 1 (bad input), like a parse error.
class SchedError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// One unit of work. `weight` is the node's estimated cost in arbitrary
/// units (the campaign DAG uses simulated hours); it feeds the
/// critical-path levels that order dispatch, never correctness.
struct DagNode {
    std::string id;
    double weight = 1.0;
};

/// A directed acyclic dependency graph. add_node/add_edge accumulate,
/// build() freezes: computes indegrees, a deterministic topological order
/// and critical-path levels, and rejects cycles. Accessors that need the
/// frozen form throw SchedError before build().
///
/// Construction is linear in nodes + edges for the campaign shape (one
/// generate hub fanning out to every fleet, every fleet fanning into one
/// aggregate hub), up to the 100003-node budget the CLI accepts.
class Dag {
public:
    /// Sizes the node tables for `nodes` nodes in total, so adding them
    /// neither reallocates nor rehashes. Optional; never changes results.
    void reserve(std::size_t nodes);

    /// Adds a node and returns its index. Ids must be unique and
    /// non-empty; weight must be finite and >= 0.
    std::size_t add_node(std::string id, double weight = 1.0);

    /// Declares "`from` must finish before `to` may start". Self-edges are
    /// rejected; duplicate edges are stored once. The duplicate check scans
    /// whichever of succs(from) and preds(to) is shorter (the two agree on
    /// every edge), so wiring a hub to N nodes costs O(N), not O(N^2).
    /// Both lists keep insertion order.
    void add_edge(std::size_t from, std::size_t to);

    /// Freezes the graph. Throws SchedError naming a node on the cycle
    /// when the edges are not acyclic. Idempotent.
    void build();

    [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }
    [[nodiscard]] std::size_t edge_count() const noexcept { return edges_; }
    [[nodiscard]] const DagNode& node(std::size_t i) const { return nodes_.at(i); }
    /// The index of the node named `id`: one hashed lookup, no copy of
    /// `id`. The hash index is only ever looked up, never iterated, so
    /// topological order and diagnostics do not depend on hashing.
    [[nodiscard]] std::optional<std::size_t> index_of(std::string_view id) const;

    [[nodiscard]] const std::vector<std::size_t>& preds(std::size_t i) const {
        return preds_.at(i);
    }
    [[nodiscard]] const std::vector<std::size_t>& succs(std::size_t i) const {
        return succs_.at(i);
    }

    /// Critical-path level: the node's weight plus the heaviest chain of
    /// successors below it (a sink's level is its own weight). Higher
    /// level = more of the campaign is waiting behind this node.
    [[nodiscard]] double level(std::size_t i) const;

    /// Deterministic topological order: Kahn's algorithm with the
    /// smallest-index ready node first, so the order depends only on the
    /// graph, never on hashing or timing.
    [[nodiscard]] const std::vector<std::size_t>& topo_order() const;

private:
    /// Lets ids_ be searched by string_view without building a string.
    struct IdHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view id) const noexcept {
            return std::hash<std::string_view>{}(id);
        }
    };

    void require_built(const char* what) const;

    std::vector<DagNode> nodes_;
    std::unordered_map<std::string, std::size_t, IdHash, std::equal_to<>> ids_;
    std::vector<std::vector<std::size_t>> succs_;
    std::vector<std::vector<std::size_t>> preds_;
    std::vector<double> levels_;
    std::vector<std::size_t> topo_;
    std::size_t edges_ = 0;
    bool built_ = false;
};

/// Size and shape metrics of a built DAG, with top offenders for
/// diagnostics (SNIPPETS.md #3 style).
struct DagMetrics {
    std::size_t node_count = 0;
    std::size_t edge_count = 0;
    std::size_t max_depth = 0;    ///< Nodes on the longest path.
    std::size_t fanout_peak = 0;  ///< Max out-degree.
    std::size_t fanin_peak = 0;   ///< Max in-degree.
    double critical_path_weight = 0.0;

    struct Offender {
        std::string id;
        std::size_t degree = 0;
    };
    std::vector<Offender> top_fanout;        ///< Top-K by out-degree, desc.
    std::vector<Offender> top_fanin;         ///< Top-K by in-degree, desc.
    std::vector<std::string> critical_path;  ///< Node ids, source to sink.
};

[[nodiscard]] DagMetrics compute_metrics(const Dag& dag, std::size_t top_k = 5);

/// Budget limits over DagMetrics. 0 means "no limit". Hard limits fail
/// the check (the CLI rejects the campaign, exit 1); soft limits only
/// warn. Both produce diagnostics naming the worst offenders.
struct DagBudget {
    std::size_t node_count_hard = 0;
    std::size_t edge_count_hard = 0;
    std::size_t max_depth_hard = 0;
    std::size_t node_count_soft = 0;
    std::size_t fanout_peak_soft = 0;

    /// The default for campaign DAGs: hard caps aligned with the CLI's
    /// --fleets ceiling (100000 fleets -> 100003 nodes, two edges per
    /// fleet node plus the spine), soft warnings an order below.
    [[nodiscard]] static DagBudget campaign_default();
};

struct BudgetCheck {
    bool passed = true;
    bool has_warnings = false;
    /// Human-readable lines ("sched: DAG over budget: ..."), empty when
    /// clean. Hard violations and warnings both land here.
    std::string diagnostics;
};

[[nodiscard]] BudgetCheck check_budget(const DagMetrics& metrics,
                                       const DagBudget& budget);

}  // namespace qrn::sched
