#include "sched/dag.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

namespace qrn::sched {

namespace {

/// Kahn's ready set as an index-ordered min-heap: pop the smallest index
/// first so the topological order is a pure function of the graph.
class IndexHeap {
public:
    void push(std::size_t value) {
        heap_.push_back(value);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }
    [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
    std::size_t pop() {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const std::size_t value = heap_.back();
        heap_.pop_back();
        return value;
    }

private:
    std::vector<std::size_t> heap_;
};

}  // namespace

void Dag::reserve(std::size_t nodes) {
    nodes_.reserve(nodes);
    ids_.reserve(nodes);
    succs_.reserve(nodes);
    preds_.reserve(nodes);
}

std::size_t Dag::add_node(std::string id, double weight) {
    if (built_) throw SchedError("Dag::add_node: graph is already built");
    if (id.empty()) throw SchedError("Dag::add_node: node id must not be empty");
    if (!std::isfinite(weight) || weight < 0.0) {
        throw SchedError("Dag::add_node: weight of '" + id +
                         "' must be finite and >= 0");
    }
    if (!ids_.try_emplace(id, nodes_.size()).second) {
        throw SchedError("Dag::add_node: duplicate node id '" + id + "'");
    }
    nodes_.push_back(DagNode{std::move(id), weight});
    succs_.emplace_back();
    preds_.emplace_back();
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
    auto& out = succs_[from];
    auto& in = preds_[to];
    const bool present = out.size() <= in.size()
                             ? std::find(out.begin(), out.end(), to) != out.end()
                             : std::find(in.begin(), in.end(), from) != in.end();
    if (present) return;
    out.push_back(to);
    in.push_back(from);
    ++edges_;
}

std::optional<std::size_t> Dag::index_of(std::string_view id) const {
    const auto it = ids_.find(id);
    if (it == ids_.end()) return std::nullopt;
    return it->second;
}

void Dag::build() {
    if (built_) return;

    // Kahn with an index-ordered ready heap: deterministic topo order and
    // cycle detection in one pass.
    std::vector<std::size_t> indegree(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) indegree[i] = preds_[i].size();
    IndexHeap ready;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (indegree[i] == 0) ready.push(i);
    }
    topo_.clear();
    topo_.reserve(nodes_.size());
    while (!ready.empty()) {
        const std::size_t at = ready.pop();
        topo_.push_back(at);
        for (const std::size_t succ : succs_[at]) {
            if (--indegree[succ] == 0) ready.push(succ);
        }
    }
    if (topo_.size() != nodes_.size()) {
        // Every unprocessed node sits on or behind a cycle; name the
        // smallest-id one so the diagnostic is stable.
        std::string worst;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (indegree[i] == 0) continue;
            if (worst.empty() || nodes_[i].id < worst) worst = nodes_[i].id;
        }
        throw SchedError("Dag::build: dependency cycle through node '" + worst +
                         "'");
    }

    // Critical-path levels in reverse topological order: each node's level
    // is its own weight plus the heaviest successor chain.
    levels_.assign(nodes_.size(), 0.0);
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
        double below = 0.0;
        for (const std::size_t succ : succs_[*it]) {
            below = std::max(below, levels_[succ]);
        }
        levels_[*it] = nodes_[*it].weight + below;
    }
    built_ = true;
}

void Dag::require_built(const char* what) const {
    if (!built_) {
        throw SchedError(std::string("Dag::") + what +
                         ": call build() before querying the frozen graph");
    }
}

double Dag::level(std::size_t i) const {
    require_built("level");
    return levels_.at(i);
}

const std::vector<std::size_t>& Dag::topo_order() const {
    require_built("topo_order");
    return topo_;
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
