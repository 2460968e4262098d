// The campaign work DAG: nodes with weights, dependency edges,
// deterministic topological order and critical-path levels.
//
// A distributed campaign is compiled into this graph (sched/plan.h builds
// the concrete generate -> simulate-fleet-i -> aggregate -> verify shape)
// and the coordinator hands fleet nodes out in descending critical-path
// order (sched/claimer.h): the node whose remaining chain to the sink is
// longest goes first, so the critical path never waits behind bulk work. The
// representation follows the artidoro scheduling exemplar (vertices and
// edges accumulate, a build step freezes them, successors and
// predecessors are read from the frozen graph, levels are
// longest-path-to-sink weights); the hard/soft
// budget machinery follows the ranking-dsl complexity-budget exemplar
// (SNIPPETS.md #3): hard limits reject the plan outright (CLI exit 1),
// soft limits warn with top-offender diagnostics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace qrn::sched {

/// A scheduling-layer contract violation: duplicate or unknown node ids,
/// edges out of range, a cyclic graph, a malformed or mismatched plan.
/// The CLI maps it to exit 1 (bad input), like a parse error.
class SchedError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// A directed acyclic dependency graph. add_node/add_edge accumulate,
/// build() freezes: it lays the edges out once in flat successor and
/// predecessor arrays, computes a deterministic topological order and
/// critical-path levels, and rejects cycles. Accessors that need the
/// frozen form (edge_count, succs, preds, level, topo_order) throw
/// SchedError before build().
///
/// Every stored node index is 32 bits wide (Index). A DAG holds at most
/// kMaxNodes nodes, kMaxEdges added edges (repeats included) and
/// kMaxIdBytes bytes of node ids in all; reserve, add_node and add_edge
/// throw SchedError, before they allocate, at the call that would pass
/// a limit, so no index can wrap.
///
/// Construction and build() are linear in nodes + edges. Node ids are
/// kept end to end in one character arena, so a node's own entry is 12
/// bytes (its id's end offset and its weight) plus its id's characters,
/// and a built DAG holds ten heap blocks at most, whatever its size and
/// its ids. The 100003-node campaign the CLI accepts compiles, and is
/// freed, at the same cost per node as a small one.
class Dag {
public:
    /// The stored width of a node index.
    using Index = std::uint32_t;
    /// Id-index slots hold index + 1, and the largest Index is kept free
    /// as a scratch mark.
    static constexpr std::size_t kMaxNodes = std::numeric_limits<Index>::max() - 1;
    /// Edge offsets are Index values too.
    static constexpr std::size_t kMaxEdges = std::numeric_limits<Index>::max();
    /// The arena's end offsets are Index values.
    static constexpr std::size_t kMaxIdBytes = std::numeric_limits<Index>::max();

    /// Sizes the node arrays and the id index for `nodes` nodes, the edge
    /// list for `edges` edges and the id arena for `id_bytes` characters,
    /// so adding them neither reallocates nor rehashes. Optional; never
    /// changes results. Throws SchedError, allocating nothing, when a
    /// count is past its limit.
    void reserve(std::size_t nodes, std::size_t edges = 0, std::size_t id_bytes = 0);

    /// Adds a node and returns its index. Ids must be unique and
    /// non-empty, and may hold any bytes; weight must be finite and >= 0.
    /// A rejected node leaves no trace.
    std::size_t add_node(std::string_view id, double weight = 1.0);

    /// Declares "`from` must finish before `to` may start". Self-edges and
    /// out-of-range indices are rejected at once; anything else is only
    /// recorded. build() keeps the first occurrence of a repeated edge.
    void add_edge(std::size_t from, std::size_t to);

    /// Freezes the graph. Throws SchedError naming the smallest id among
    /// the nodes on or behind a cycle when the edges are not acyclic, and
    /// leaves the graph unbuilt. Idempotent.
    void build();

    [[nodiscard]] std::size_t size() const noexcept { return weights_.size(); }
    /// The number of distinct edges. Requires build().
    [[nodiscard]] std::size_t edge_count() const {
        require_built("edge_count");
        return succs_.targets.size();
    }
    /// Node i's id, a view into the DAG's arena that stays valid until
    /// the next add_node. Throws std::out_of_range past the last node.
    [[nodiscard]] std::string_view id(std::size_t i) const {
        if (i >= size()) throw_out_of_range(i);
        return id_at(i);
    }
    /// Node i's weight: its estimated cost in arbitrary units (the
    /// campaign DAG uses simulated hours). It feeds the critical-path
    /// levels that order dispatch, never correctness.
    [[nodiscard]] double weight(std::size_t i) const { return weights_.at(i); }
    /// The index of the node named `id`: one hashed lookup, no copy of
    /// `id`. Valid before and after build(). The index is only ever
    /// looked up, never iterated, so topological order and diagnostics do
    /// not depend on hashing.
    [[nodiscard]] std::optional<std::size_t> index_of(std::string_view id) const;

    /// Node i's distinct predecessors / successors, each in the order its
    /// edge was first added. Require build(); the spans stay valid for
    /// the DAG's lifetime.
    [[nodiscard]] std::span<const Index> preds(std::size_t i) const {
        require_built("preds");
        return preds_.row(i);
    }
    [[nodiscard]] std::span<const Index> succs(std::size_t i) const {
        require_built("succs");
        return succs_.row(i);
    }

    /// Critical-path level: the node's weight plus the heaviest chain of
    /// successors below it (a sink's level is its own weight). Higher
    /// level = more of the campaign is waiting behind this node.
    [[nodiscard]] double level(std::size_t i) const {
        require_built("level");
        return levels_.at(i);
    }

    /// Deterministic topological order: Kahn's algorithm as a FIFO, with
    /// the sources in index order first, then each node as the last of
    /// its predecessors is dequeued, in successor-list order. The order
    /// depends only on the nodes and the order the edges were added,
    /// never on hashing or timing.
    [[nodiscard]] const std::vector<Index>& topo_order() const {
        require_built("topo_order");
        return topo_;
    }

private:
    /// One direction of the frozen adjacency, in compressed sparse rows:
    /// node i's list is targets[offsets[i] .. offsets[i + 1]).
    struct Adjacency {
        std::vector<Index> offsets;
        std::vector<Index> targets;

        /// Node i's list; throws std::out_of_range past the last node.
        [[nodiscard]] std::span<const Index> row(std::size_t i) const {
            // offsets holds one entry per node, plus one.
            if (i >= offsets.size() - 1) throw_out_of_range(i);
            return {targets.data() + offsets[i], targets.data() + offsets[i + 1]};
        }
    };

    void require_built(const char* what) const {
        if (!built_) throw_unbuilt(what);
    }
    [[noreturn]] static void throw_unbuilt(const char* what);
    [[noreturn]] static void throw_out_of_range(std::size_t i);
    /// Node i's id, unchecked: it begins where node i - 1's ends.
    [[nodiscard]] std::string_view id_at(std::size_t i) const noexcept {
        const std::size_t begin = i == 0 ? 0 : id_ends_[i - 1];
        return {chars_.data() + begin, id_ends_[i] - begin};
    }
    /// The id-index slot holding `id`, or the empty slot where it belongs.
    [[nodiscard]] std::size_t find_slot(std::string_view id) const noexcept;
    /// Rebuilds the id index with `capacity` slots (a power of two).
    void rehash(std::size_t capacity);

    /// Every node id, end to end; node i's ends at id_ends_[i].
    std::string chars_;
    std::vector<Index> id_ends_;
    std::vector<double> weights_;
    /// Open-addressed id index with linear probing: each slot holds a node
    /// index + 1, or 0 when empty. The capacity is a power of two at least
    /// twice the node count, so every probe sequence ends at an empty slot.
    std::vector<Index> ids_;
    /// The edges as added, (from, to); build() lays them out and frees them.
    std::vector<std::pair<Index, Index>> edges_;
    Adjacency succs_;
    Adjacency preds_;
    std::vector<double> levels_;
    std::vector<Index> topo_;
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
    [[nodiscard]] static constexpr DagBudget campaign_default() {
        DagBudget b;
        b.node_count_hard = 100003;  // CLI --fleets cap (100000) + the spine.
        b.edge_count_hard = 200002;  // two edges per fleet node + the spine.
        b.max_depth_hard = 64;       // the campaign spine is 4 deep; 64 leaves
                                     // room for staged plans without letting a
                                     // degenerate chain through.
        b.node_count_soft = 10003;
        b.fanout_peak_soft = 10000;
        return b;
    }
};

// Every campaign the default budget admits fits Dag's 32-bit indices.
static_assert(DagBudget::campaign_default().node_count_hard <= Dag::kMaxNodes &&
              DagBudget::campaign_default().edge_count_hard <= Dag::kMaxEdges);

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
