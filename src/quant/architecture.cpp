#include "quant/architecture.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace qrn::quant {

std::unique_ptr<ArchNode> ArchNode::element(std::string name, Frequency rate,
                                            CauseCategory cause) {
    if (name.empty()) throw std::invalid_argument("ArchNode::element: name required");
    auto node = std::make_unique<ArchNode>(Passkey{});
    node->name_ = std::move(name);
    node->rate_ = rate;
    node->cause_ = cause;
    return node;
}

std::unique_ptr<ArchNode> ArchNode::any_of(std::string name,
                                           std::vector<std::unique_ptr<ArchNode>> children) {
    if (children.empty()) throw std::invalid_argument("ArchNode::any_of: needs children");
    auto node = std::make_unique<ArchNode>(Passkey{});
    node->name_ = std::move(name);
    node->kind_ = GateKind::Or;
    node->children_ = std::move(children);
    return node;
}

std::unique_ptr<ArchNode> ArchNode::all_of(std::string name,
                                           std::vector<std::unique_ptr<ArchNode>> children,
                                           double tau_hours) {
    if (children.size() < 2) {
        throw std::invalid_argument("ArchNode::all_of: redundancy needs >= 2 children");
    }
    if (!(tau_hours > 0.0)) throw std::invalid_argument("ArchNode::all_of: tau > 0");
    auto node = std::make_unique<ArchNode>(Passkey{});
    node->name_ = std::move(name);
    node->kind_ = GateKind::And;
    node->children_ = std::move(children);
    node->tau_hours_ = tau_hours;
    return node;
}

std::unique_ptr<ArchNode> ArchNode::k_of_n(std::string name, std::size_t k, std::size_t n,
                                           Frequency child_rate, double tau_hours) {
    if (k == 0 || k > n) throw std::invalid_argument("ArchNode::k_of_n: 1 <= k <= n");
    auto node = std::make_unique<ArchNode>(Passkey{});
    node->name_ = std::move(name);
    node->kind_ = GateKind::KofN;
    node->synthetic_kofn_ = true;
    node->k_ = k;
    node->n_ = n;
    node->rate_ = child_rate;
    node->tau_hours_ = tau_hours;
    return node;
}

Frequency ArchNode::evaluate() const {
    if (synthetic_kofn_) return k_of_n_rate(k_, n_, rate_, tau_hours_);
    if (children_.empty()) return rate_;
    if (kind_ == GateKind::Or) {
        Frequency total;
        for (const auto& c : children_) total += c->evaluate();
        return total;
    }
    // AND gate: fold children pairwise through parallel_rate. For more than
    // two children the small-rate product with tau^(m-1) is applied
    // iteratively, which matches the leading-order term.
    Frequency acc = children_.front()->evaluate();
    for (std::size_t i = 1; i < children_.size(); ++i) {
        acc = parallel_rate(acc, children_[i]->evaluate(), tau_hours_);
    }
    return acc;
}

std::vector<CauseContribution> ArchNode::leaf_contributions() const {
    std::vector<CauseContribution> out;
    if (synthetic_kofn_) {
        out.insert(out.end(), n_, CauseContribution{cause_, rate_});
        return out;
    }
    if (children_.empty()) {
        out.push_back(CauseContribution{cause_, rate_});
        return out;
    }
    for (const auto& c : children_) {
        auto sub = c->leaf_contributions();
        out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
}

std::string ArchNode::render(int indent) const {
    std::ostringstream os;
    os << std::string(static_cast<std::size_t>(indent) * 2, ' ');
    if (synthetic_kofn_) {
        os << name_ << " [" << k_ << "-of-" << n_ << ", child " << rate_.to_string()
           << ", tau=" << tau_hours_ << "h] -> " << evaluate().to_string() << '\n';
        return os.str();
    }
    if (children_.empty()) {
        os << name_ << " [" << to_string(cause_) << ", " << rate_.to_string() << "]\n";
        return os.str();
    }
    os << name_ << " ["
       << (kind_ == GateKind::Or ? "OR" : "AND tau=" + std::to_string(tau_hours_) + "h")
       << "] -> " << evaluate().to_string() << '\n';
    for (const auto& c : children_) os << c->render(indent + 1);
    return os.str();
}

bool ArchNode::contains(const ArchNode* target) const noexcept {
    if (this == target) return true;
    for (const auto& c : children_) {
        if (c->contains(target)) return true;
    }
    return false;
}

Frequency ArchNode::evaluate_with_scaled(const ArchNode* target, double factor) const {
    if (target == nullptr || !contains(target)) {
        throw std::invalid_argument("evaluate_with_scaled: target not in this tree");
    }
    if (!(factor >= 0.0)) {
        throw std::invalid_argument("evaluate_with_scaled: factor must be >= 0");
    }
    if (this == target) {
        if (synthetic_kofn_) return k_of_n_rate(k_, n_, rate_ * factor, tau_hours_);
        if (children_.empty()) return rate_ * factor;
        // Scaling a whole gate: scale its evaluated rate (used recursively).
        return evaluate() * factor;
    }
    if (children_.empty()) return rate_;
    const auto child_rate = [&](const std::unique_ptr<ArchNode>& c) {
        return c->contains(target) ? c->evaluate_with_scaled(target, factor)
                                   : c->evaluate();
    };
    if (kind_ == GateKind::Or) {
        Frequency total;
        for (const auto& c : children_) total += child_rate(c);
        return total;
    }
    Frequency acc = child_rate(children_.front());
    for (std::size_t i = 1; i < children_.size(); ++i) {
        acc = parallel_rate(acc, child_rate(children_[i]), tau_hours_);
    }
    return acc;
}

std::vector<LeafImportance> leaf_elasticities(const ArchNode& top) {
    const double base = top.evaluate().per_hour_value();
    if (!(base > 0.0)) {
        throw std::invalid_argument("leaf_elasticities: top rate must be > 0");
    }
    // Collect leaf/synthetic nodes by walking the tree.
    std::vector<const ArchNode*> leaves;
    const std::function<void(const ArchNode&)> visit = [&](const ArchNode& node) {
        if (node.children().empty()) {
            leaves.push_back(&node);
            return;
        }
        for (const auto& c : node.children()) visit(*c);
    };
    visit(top);

    constexpr double kEps = 1e-4;
    std::vector<LeafImportance> out;
    out.reserve(leaves.size());
    for (const ArchNode* leaf : leaves) {
        LeafImportance imp;
        imp.leaf = leaf;
        imp.name = leaf->name();
        const auto contributions = leaf->leaf_contributions();
        imp.cause = contributions.front().cause;
        imp.rate = contributions.front().rate;
        const double up = top.evaluate_with_scaled(leaf, 1.0 + kEps).per_hour_value();
        imp.elasticity = (up - base) / (base * kEps);
        out.push_back(std::move(imp));
    }
    std::sort(out.begin(), out.end(), [](const LeafImportance& a, const LeafImportance& b) {
        return a.elasticity * a.rate.per_hour_value() >
               b.elasticity * b.rate.per_hour_value();
    });
    return out;
}

namespace {

std::vector<CutSet> cut_sets_of(const ArchNode& node) {
    if (node.is_kofn()) {
        // Violation requires any m = n - k + 1 channels down at once:
        // enumerate all combinations of m pseudo-leaves "name[i]".
        const std::size_t n = node.kofn_copies();
        const std::size_t m = node.kofn_failures_needed();
        std::vector<CutSet> out;
        std::vector<std::size_t> combo(m);
        const std::function<void(std::size_t, std::size_t)> choose =
            [&](std::size_t start, std::size_t depth) {
                if (depth == m) {
                    CutSet cut;
                    for (const std::size_t i : combo) {
                        cut.push_back(node.name() + "[" + std::to_string(i + 1) + "]");
                    }
                    out.push_back(std::move(cut));
                    return;
                }
                for (std::size_t i = start; i < n; ++i) {
                    combo[depth] = i;
                    choose(i + 1, depth + 1);
                }
            };
        choose(0, 0);
        return out;
    }
    if (node.children().empty()) return {{node.name()}};

    std::vector<std::vector<CutSet>> child_sets;
    child_sets.reserve(node.children().size());
    for (const auto& c : node.children()) child_sets.push_back(cut_sets_of(*c));
    if (node.kind() == GateKind::Or) {
        std::vector<CutSet> out;
        for (auto& sets : child_sets) {
            out.insert(out.end(), sets.begin(), sets.end());
        }
        return out;
    }
    // AND gate: cross product of the children's cut sets.
    std::vector<CutSet> out = child_sets.front();
    for (std::size_t i = 1; i < child_sets.size(); ++i) {
        std::vector<CutSet> next;
        for (const auto& a : out) {
            for (const auto& b : child_sets[i]) {
                CutSet merged = a;
                merged.insert(merged.end(), b.begin(), b.end());
                next.push_back(std::move(merged));
            }
        }
        out = std::move(next);
    }
    return out;
}

}  // namespace

std::vector<CutSet> minimal_cut_sets(const ArchNode& top) {
    auto sets = cut_sets_of(top);
    for (auto& cut : sets) {
        std::sort(cut.begin(), cut.end());
        cut.erase(std::unique(cut.begin(), cut.end()), cut.end());
    }
    // Keep only minimal sets: drop any set containing a kept smaller one.
    std::sort(sets.begin(), sets.end(), [](const CutSet& a, const CutSet& b) {
        if (a.size() != b.size()) return a.size() < b.size();
        return a < b;
    });
    std::vector<CutSet> minimal;
    for (const auto& candidate : sets) {
        bool dominated = false;
        for (const auto& kept : minimal) {
            dominated = std::includes(candidate.begin(), candidate.end(), kept.begin(),
                                      kept.end());
            if (dominated) break;
        }
        if (!dominated) minimal.push_back(candidate);
    }
    return minimal;
}

Frequency equal_series_split(Frequency budget, std::size_t elements) {
    if (elements == 0) throw std::invalid_argument("equal_series_split: elements >= 1");
    return budget * (1.0 / static_cast<double>(elements));
}

}  // namespace qrn::quant
