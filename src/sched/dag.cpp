#include "sched/dag.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string_view>

namespace qrn::sched {

namespace {

using Index = Dag::Index;

constexpr Index kUnmarked = std::numeric_limits<Index>::max();

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
void lay_out(const std::vector<std::pair<Index, Index>>& edges, bool by_source,
             std::size_t nodes, std::vector<Index>& offsets, std::vector<Index>& targets,
             std::vector<Index>& seen) {
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
    Index read = 0;
    Index write = 0;
    for (Index node = 0; node < nodes; ++node) {
        const Index end = offsets[node];
        offsets[node] = write;
        for (; read < end; ++read) {
            const Index other = targets[read];
            if (seen[other] == node) continue;
            seen[other] = node;
            targets[write++] = other;
        }
    }
    offsets[nodes] = write;
    targets.resize(write);
}

[[noreturn]] void throw_over_limit(const char* where, std::size_t count, const char* what,
                                   std::size_t limit) {
    throw SchedError(std::string("Dag::") + where + ": " + std::to_string(count) + " " +
                     what + " exceed the limit of " + std::to_string(limit));
}

}  // namespace

void Dag::reserve(std::size_t nodes, std::size_t edges, std::size_t id_bytes) {
    if (nodes > kMaxNodes) throw_over_limit("reserve", nodes, "nodes", kMaxNodes);
    if (edges > kMaxEdges) throw_over_limit("reserve", edges, "edges", kMaxEdges);
    if (id_bytes > kMaxIdBytes) {
        throw_over_limit("reserve", id_bytes, "id bytes", kMaxIdBytes);
    }
    chars_.reserve(id_bytes);
    id_ends_.reserve(nodes);
    weights_.reserve(nodes);
    edges_.reserve(edges);
    const std::size_t capacity = std::bit_ceil(2 * nodes);
    if (capacity > ids_.size()) rehash(capacity);
}

std::size_t Dag::find_slot(std::string_view id) const noexcept {
    const std::size_t mask = ids_.size() - 1;
    for (std::size_t at = id_hash(id) & mask;; at = (at + 1) & mask) {
        const Index entry = ids_[at];
        if (entry == 0 || id_at(entry - 1) == id) return at;
    }
}

void Dag::rehash(std::size_t capacity) {
    std::vector<Index> slots(capacity, 0);
    const std::size_t mask = capacity - 1;
    for (std::size_t i = 0; i < size(); ++i) {
        std::size_t at = id_hash(id_at(i)) & mask;
        while (slots[at] != 0) at = (at + 1) & mask;
        slots[at] = static_cast<Index>(i + 1);
    }
    ids_ = std::move(slots);
}

std::size_t Dag::add_node(std::string_view id, double weight) {
    if (built_) throw SchedError("Dag::add_node: graph is already built");
    if (id.empty()) throw SchedError("Dag::add_node: node id must not be empty");
    if (!std::isfinite(weight) || weight < 0.0) {
        throw SchedError("Dag::add_node: weight of '" + std::string(id) +
                         "' must be finite and >= 0");
    }
    if (size() == kMaxNodes) throw_over_limit("add_node", kMaxNodes + 1, "nodes", kMaxNodes);
    if (id.size() > kMaxIdBytes - chars_.size()) {
        throw_over_limit("add_node", chars_.size() + id.size(), "id bytes", kMaxIdBytes);
    }
    if (2 * (size() + 1) > ids_.size()) {
        rehash(std::max<std::size_t>(16, 2 * ids_.size()));
    }
    const std::size_t slot = find_slot(id);
    if (ids_[slot] != 0) {
        throw SchedError("Dag::add_node: duplicate node id '" + std::string(id) + "'");
    }
    chars_.append(id);
    id_ends_.push_back(static_cast<Index>(chars_.size()));
    weights_.push_back(weight);
    ids_[slot] = static_cast<Index>(size());
    return size() - 1;
}

void Dag::add_edge(std::size_t from, std::size_t to) {
    if (built_) throw SchedError("Dag::add_edge: graph is already built");
    if (from >= size() || to >= size()) {
        throw SchedError("Dag::add_edge: node index out of range (" +
                         std::to_string(from) + " -> " + std::to_string(to) +
                         " with " + std::to_string(size()) + " nodes)");
    }
    if (from == to) {
        throw SchedError("Dag::add_edge: self-edge on '" + std::string(id_at(from)) + "'");
    }
    if (edges_.size() == kMaxEdges) {
        throw_over_limit("add_edge", kMaxEdges + 1, "edges", kMaxEdges);
    }
    edges_.emplace_back(static_cast<Index>(from), static_cast<Index>(to));
}

std::optional<std::size_t> Dag::index_of(std::string_view id) const {
    if (ids_.empty()) return std::nullopt;
    const Index entry = ids_[find_slot(id)];
    if (entry == 0) return std::nullopt;
    return entry - 1;
}

void Dag::build() {
    if (built_) return;
    const std::size_t n = size();

    // Both directions in insertion order, each repeated edge kept once.
    std::vector<Index> scratch;
    lay_out(edges_, true, n, succs_.offsets, succs_.targets, scratch);
    lay_out(edges_, false, n, preds_.offsets, preds_.targets, scratch);

    // Kahn as a FIFO, with topo_ itself as the queue: sources in index
    // order, then each node as its last predecessor is dequeued.
    std::vector<Index>& indegree = scratch;
    for (std::size_t i = 0; i < n; ++i) {
        indegree[i] = preds_.offsets[i + 1] - preds_.offsets[i];
    }
    topo_.clear();
    topo_.reserve(n);
    for (Index i = 0; i < n; ++i) {
        if (indegree[i] == 0) topo_.push_back(i);
    }
    for (std::size_t head = 0; head < topo_.size(); ++head) {
        for (const Index succ : succs_.row(topo_[head])) {
            if (--indegree[succ] == 0) topo_.push_back(succ);
        }
    }
    if (topo_.size() != n) {
        // Every unprocessed node sits on or behind a cycle. That set does
        // not depend on the order Kahn took; name its smallest id so the
        // diagnostic is stable.
        std::string_view worst;
        for (std::size_t i = 0; i < n; ++i) {
            if (indegree[i] == 0) continue;
            if (worst.empty() || id_at(i) < worst) worst = id_at(i);
        }
        throw SchedError("Dag::build: dependency cycle through node '" +
                         std::string(worst) + "'");
    }

    // The graph is acyclic, so the staged list and the scratch are done
    // with; freeing them first lets the levels reuse their memory.
    // (`edges_ = {}` would only clear the list: the initializer-list
    // assignment keeps the capacity.)
    decltype(edges_)().swap(edges_);
    decltype(scratch)().swap(scratch);

    // Critical-path levels in reverse topological order: each node's level
    // is its own weight plus the heaviest successor chain.
    levels_.assign(n, 0.0);
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
        double below = 0.0;
        for (const Index succ : succs_.row(*it)) {
            below = std::max(below, levels_[succ]);
        }
        levels_[*it] = weights_[*it] + below;
    }
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
/// diagnostics are deterministic. Ids are unique, so the order is total,
/// and one pass that keeps the best K seen so far, sorted, ends holding
/// exactly the first K entries a full sort would. A node that ranks below
/// the K-th kept one costs one comparison; only the K listed ids are
/// copied.
template <typename DegreeOf>
std::vector<DagMetrics::Offender> top_by_degree(const Dag& dag, std::size_t top_k,
                                                DegreeOf degree_of) {
    struct Entry {
        std::size_t degree;
        std::size_t node;
    };
    const auto above = [&](const Entry& a, const Entry& b) {
        if (a.degree != b.degree) return a.degree > b.degree;
        return dag.id(a.node) < dag.id(b.node);
    };
    const std::size_t k = std::min(top_k, dag.size());
    std::vector<Entry> best;  // best first
    best.reserve(k + 1);
    for (std::size_t i = 0; i < dag.size() && k > 0; ++i) {
        const Entry entry{degree_of(i), i};
        if (best.size() == k && !above(entry, best.back())) continue;
        best.insert(std::upper_bound(best.begin(), best.end(), entry, above), entry);
        if (best.size() > k) best.pop_back();
    }
    std::vector<DagMetrics::Offender> top;
    top.reserve(best.size());
    for (const Entry& entry : best) {
        top.push_back({std::string(dag.id(entry.node)), entry.degree});
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
    std::vector<Index> depth(dag.size(), 1);
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        for (const Index succ : dag.succs(*it)) {
            depth[*it] = std::max<Index>(depth[*it], depth[succ] + 1);
        }
        m.max_depth = std::max<std::size_t>(m.max_depth, depth[*it]);
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
            (dag.level(i) == dag.level(at) && dag.id(i) < dag.id(at))) {
            at = i;
            found = true;
        }
    }
    if (found) {
        m.critical_path_weight = dag.level(at);
        for (;;) {
            m.critical_path.emplace_back(dag.id(at));
            const auto& succs = dag.succs(at);
            if (succs.empty()) break;
            Index next = succs.front();
            for (const Index succ : succs) {
                if (dag.level(succ) > dag.level(next) ||
                    (dag.level(succ) == dag.level(next) && dag.id(succ) < dag.id(next))) {
                    next = succ;
                }
            }
            at = next;
        }
    }
    return m;
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
