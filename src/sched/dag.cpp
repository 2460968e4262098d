#include "sched/dag.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <string_view>

namespace qrn::sched {

namespace {

constexpr std::size_t kUnmarked = static_cast<std::size_t>(-1);

std::size_t id_hash(std::string_view id) noexcept {
    return std::hash<std::string_view>{}(id);
}

/// Lays `edges` out by one endpoint (`by_source`: the edge's `from`, else
/// its `to`) into compressed sparse rows: a stable counting sort, so each
/// node's list keeps the order its edges were added, then one pass that
/// drops every repeat of a (from, to) pair after its first occurrence.
/// `seen` is scratch of one mark per node: the last list that named each
/// node, which is all the repeat check needs because the lists are
/// visited one at a time.
void lay_out(const std::vector<std::pair<std::size_t, std::size_t>>& edges,
             bool by_source, std::size_t nodes, std::vector<std::size_t>& offsets,
             std::vector<std::size_t>& targets, std::vector<std::size_t>& seen) {
    offsets.assign(nodes + 1, 0);
    for (const auto& [from, to] : edges) ++offsets[(by_source ? from : to) + 1];
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    // Placing each edge advances its node's offset to the start of the
    // next node's list.
    targets.resize(edges.size());
    for (const auto& [from, to] : edges) {
        targets[offsets[by_source ? from : to]++] = by_source ? to : from;
    }
    seen.assign(nodes, kUnmarked);
    std::size_t read = 0;
    std::size_t write = 0;
    for (std::size_t node = 0; node < nodes; ++node) {
        const std::size_t end = offsets[node];
        offsets[node] = write;
        for (; read < end; ++read) {
            const std::size_t other = targets[read];
            if (seen[other] == node) continue;
            seen[other] = node;
            targets[write++] = other;
        }
    }
    offsets[nodes] = write;
    targets.resize(write);
}

}  // namespace

void Dag::reserve(std::size_t nodes, std::size_t edges) {
    nodes_.reserve(nodes);
    edges_.reserve(edges);
    const std::size_t capacity = std::bit_ceil(2 * nodes);
    if (capacity > ids_.size()) rehash(capacity);
}

std::size_t Dag::find_slot(std::string_view id) const noexcept {
    const std::size_t mask = ids_.size() - 1;
    for (std::size_t at = id_hash(id) & mask;; at = (at + 1) & mask) {
        const std::size_t entry = ids_[at];
        if (entry == 0 || nodes_[entry - 1].id == id) return at;
    }
}

void Dag::rehash(std::size_t capacity) {
    std::vector<std::size_t> slots(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        std::size_t at = id_hash(nodes_[i].id) & mask;
        while (slots[at] != 0) at = (at + 1) & mask;
        slots[at] = i + 1;
    }
    ids_ = std::move(slots);
}

std::size_t Dag::add_node(std::string id, double weight) {
    if (built_) throw SchedError("Dag::add_node: graph is already built");
    if (id.empty()) throw SchedError("Dag::add_node: node id must not be empty");
    if (!std::isfinite(weight) || weight < 0.0) {
        throw SchedError("Dag::add_node: weight of '" + id +
                         "' must be finite and >= 0");
    }
    if (2 * (nodes_.size() + 1) > ids_.size()) {
        rehash(std::max<std::size_t>(16, 2 * ids_.size()));
    }
    const std::size_t slot = find_slot(id);
    if (ids_[slot] != 0) {
        throw SchedError("Dag::add_node: duplicate node id '" + id + "'");
    }
    nodes_.push_back(DagNode{std::move(id), weight});
    ids_[slot] = nodes_.size();
    return nodes_.size() - 1;
}

void Dag::add_edge(std::size_t from, std::size_t to) {
    if (built_) throw SchedError("Dag::add_edge: graph is already built");
    if (from >= nodes_.size() || to >= nodes_.size()) {
        throw SchedError("Dag::add_edge: node index out of range (" +
                         std::to_string(from) + " -> " + std::to_string(to) +
                         " with " + std::to_string(nodes_.size()) + " nodes)");
    }
    if (from == to) {
        throw SchedError("Dag::add_edge: self-edge on '" + nodes_[from].id + "'");
    }
    edges_.emplace_back(from, to);
}

std::optional<std::size_t> Dag::index_of(std::string_view id) const {
    if (ids_.empty()) return std::nullopt;
    const std::size_t entry = ids_[find_slot(id)];
    if (entry == 0) return std::nullopt;
    return entry - 1;
}

void Dag::build() {
    if (built_) return;
    const std::size_t n = nodes_.size();

    // Both directions in insertion order, each repeated edge kept once.
    std::vector<std::size_t> scratch;
    lay_out(edges_, true, n, succs_.offsets, succs_.targets, scratch);
    lay_out(edges_, false, n, preds_.offsets, preds_.targets, scratch);

    // Kahn as a FIFO, with topo_ itself as the queue: sources in index
    // order, then each node as its last predecessor is dequeued.
    std::vector<std::size_t>& indegree = scratch;
    for (std::size_t i = 0; i < n; ++i) {
        indegree[i] = preds_.offsets[i + 1] - preds_.offsets[i];
    }
    topo_.clear();
    topo_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (indegree[i] == 0) topo_.push_back(i);
    }
    for (std::size_t head = 0; head < topo_.size(); ++head) {
        for (const std::size_t succ : succs_.row(topo_[head])) {
            if (--indegree[succ] == 0) topo_.push_back(succ);
        }
    }
    if (topo_.size() != n) {
        // Every unprocessed node sits on or behind a cycle. That set does
        // not depend on the order Kahn took; name its smallest id so the
        // diagnostic is stable.
        std::string worst;
        for (std::size_t i = 0; i < n; ++i) {
            if (indegree[i] == 0) continue;
            if (worst.empty() || nodes_[i].id < worst) worst = nodes_[i].id;
        }
        throw SchedError("Dag::build: dependency cycle through node '" + worst +
                         "'");
    }

    // Critical-path levels in reverse topological order: each node's level
    // is its own weight plus the heaviest successor chain.
    levels_.assign(n, 0.0);
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
        double below = 0.0;
        for (const std::size_t succ : succs_.row(*it)) {
            below = std::max(below, levels_[succ]);
        }
        levels_[*it] = nodes_[*it].weight + below;
    }
    edges_ = {};
    built_ = true;
}

void Dag::throw_unbuilt(const char* what) {
    throw SchedError(std::string("Dag::") + what +
                     ": call build() before querying the frozen graph");
}

void Dag::throw_out_of_range(std::size_t i) {
    throw std::out_of_range("Dag: node index " + std::to_string(i) + " out of range");
}

namespace {

/// Top-K offenders by degree, descending, ties broken by id so the
/// diagnostics are deterministic. Ids are unique, so the order is total
/// and a partial sort of node indices picks exactly the first K entries a
/// full sort would; only those K ids are copied.
template <typename DegreeOf>
std::vector<DagMetrics::Offender> top_by_degree(const Dag& dag, std::size_t top_k,
                                                DegreeOf degree_of) {
    std::vector<std::size_t> order(dag.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    const auto k = static_cast<std::ptrdiff_t>(std::min(top_k, order.size()));
    std::partial_sort(order.begin(), order.begin() + k, order.end(),
                      [&](std::size_t a, std::size_t b) {
                          const std::size_t da = degree_of(a);
                          const std::size_t db = degree_of(b);
                          if (da != db) return da > db;
                          return dag.node(a).id < dag.node(b).id;
                      });
    std::vector<DagMetrics::Offender> top;
    top.reserve(static_cast<std::size_t>(k));
    for (auto it = order.begin(); it != order.begin() + k; ++it) {
        top.push_back({dag.node(*it).id, degree_of(*it)});
    }
    return top;
}

}  // namespace

DagMetrics compute_metrics(const Dag& dag, std::size_t top_k) {
    DagMetrics m;
    m.node_count = dag.size();
    m.edge_count = dag.edge_count();
    if (dag.size() == 0) return m;

    // Depth (node count on the longest path) in reverse topo order.
    const auto& topo = dag.topo_order();
    std::vector<std::size_t> depth(dag.size(), 1);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        for (const std::size_t succ : dag.succs(*it)) {
            depth[*it] = std::max(depth[*it], depth[succ] + 1);
        }
        m.max_depth = std::max(m.max_depth, depth[*it]);
    }
    for (std::size_t i = 0; i < dag.size(); ++i) {
        m.fanout_peak = std::max(m.fanout_peak, dag.succs(i).size());
        m.fanin_peak = std::max(m.fanin_peak, dag.preds(i).size());
    }
    m.top_fanout = top_by_degree(
        dag, top_k, [&](std::size_t i) { return dag.succs(i).size(); });
    m.top_fanin = top_by_degree(
        dag, top_k, [&](std::size_t i) { return dag.preds(i).size(); });

    // Walk the critical path: start from the source with the highest
    // level, follow the heaviest successor; ties break by id.
    std::size_t at = 0;
    bool found = false;
    for (std::size_t i = 0; i < dag.size(); ++i) {
        if (!dag.preds(i).empty()) continue;
        if (!found || dag.level(i) > dag.level(at) ||
            (dag.level(i) == dag.level(at) && dag.node(i).id < dag.node(at).id)) {
            at = i;
            found = true;
        }
    }
    if (found) {
        m.critical_path_weight = dag.level(at);
        for (;;) {
            m.critical_path.push_back(dag.node(at).id);
            const auto& succs = dag.succs(at);
            if (succs.empty()) break;
            std::size_t next = succs.front();
            for (const std::size_t succ : succs) {
                if (dag.level(succ) > dag.level(next) ||
                    (dag.level(succ) == dag.level(next) &&
                     dag.node(succ).id < dag.node(next).id)) {
                    next = succ;
                }
            }
            at = next;
        }
    }
    return m;
}

DagBudget DagBudget::campaign_default() {
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

namespace {

void offender_lines(std::string& out, const char* label,
                    const std::vector<DagMetrics::Offender>& offenders) {
    if (offenders.empty()) return;
    out += "sched:   top ";
    out += label;
    out += ":";
    for (const auto& o : offenders) {
        out += " " + o.id + " (" + std::to_string(o.degree) + ")";
    }
    out += "\n";
}

}  // namespace

BudgetCheck check_budget(const DagMetrics& metrics, const DagBudget& budget) {
    BudgetCheck check;
    const auto hard = [&](const char* what, std::size_t value, std::size_t limit) {
        if (limit == 0 || value <= limit) return;
        check.passed = false;
        check.diagnostics += "sched: DAG over budget: " + std::string(what) +
                             " " + std::to_string(value) + " > hard limit " +
                             std::to_string(limit) + "\n";
    };
    const auto soft = [&](const char* what, std::size_t value, std::size_t limit) {
        if (limit == 0 || value <= limit) return;
        check.has_warnings = true;
        check.diagnostics += "sched: warning: " + std::string(what) + " " +
                             std::to_string(value) + " exceeds soft limit " +
                             std::to_string(limit) + "\n";
    };
    hard("node count", metrics.node_count, budget.node_count_hard);
    hard("edge count", metrics.edge_count, budget.edge_count_hard);
    hard("depth", metrics.max_depth, budget.max_depth_hard);
    soft("node count", metrics.node_count, budget.node_count_soft);
    soft("fan-out peak", metrics.fanout_peak, budget.fanout_peak_soft);
    if (!check.diagnostics.empty()) {
        offender_lines(check.diagnostics, "fan-out", metrics.top_fanout);
        offender_lines(check.diagnostics, "fan-in", metrics.top_fanin);
    }
    return check;
}

}  // namespace qrn::sched
