// Architecture DAGs: evaluating and refining violation budgets over a
// redundant element structure.
//
// Sec. V's running example: "a common problem in ADS is to determine a
// drivable area in front of ego vehicle free from VRUs. A safety
// requirement on the aggregated block of sensing and prediction could then
// be not to overestimate such an area, with a very tough integrity
// attribute. ... When decomposing this in several redundant sensing and
// prediction blocks, these can each get frequency attributes of a value
// that in traditionally ISO 26262 only would be in the QM range."
//
// The architecture is a tree of gates over leaf elements:
//  - OR gate: the requirement is violated if any child is violated (series);
//  - AND gate: violated only when all children are violated within a
//    common exposure window (redundancy);
//  - KOFN gate: violated when fewer than k of the n children are healthy.
// Leaves carry their own violation rate and cause category.
#pragma once

#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "quant/failure_rate.h"

namespace qrn::quant {

/// Gate kinds for internal nodes.
enum class GateKind : std::uint8_t { Or, And, KofN };

/// A node in the architecture tree. Build with the static factories.
class ArchNode {
    /// Passkey: only the static factories can name this type, so only they
    /// can construct nodes - but through std::make_unique, not a naked new.
    struct Passkey {
        explicit Passkey() = default;
    };

public:
    explicit ArchNode(Passkey) noexcept {}

    /// Leaf element with its violation rate and cause.
    [[nodiscard]] static std::unique_ptr<ArchNode> element(
        std::string name, Frequency rate,
        CauseCategory cause = CauseCategory::SystematicDesign);

    /// OR gate over children (at least one child).
    [[nodiscard]] static std::unique_ptr<ArchNode> any_of(
        std::string name, std::vector<std::unique_ptr<ArchNode>> children);

    /// AND gate (full redundancy) with common exposure window tau (hours).
    [[nodiscard]] static std::unique_ptr<ArchNode> all_of(
        std::string name, std::vector<std::unique_ptr<ArchNode>> children,
        double tau_hours);

    /// k-of-n gate over n identical copies of `child_rate` leaves. Models
    /// homogeneous redundancy without materialising n children.
    [[nodiscard]] static std::unique_ptr<ArchNode> k_of_n(std::string name, std::size_t k,
                                                          std::size_t n,
                                                          Frequency child_rate,
                                                          double tau_hours);

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] bool is_leaf() const noexcept {
        return children_.empty() && kind_ == GateKind::Or && !synthetic_kofn_;
    }

    /// Child gates/elements (empty for leaves and synthetic k-of-n nodes).
    [[nodiscard]] const std::vector<std::unique_ptr<ArchNode>>& children()
        const noexcept {
        return children_;
    }

    /// The gate kind (Or for leaves by convention; KofN for synthetic
    /// k-of-n nodes).
    [[nodiscard]] GateKind kind() const noexcept { return kind_; }
    [[nodiscard]] bool is_kofn() const noexcept { return synthetic_kofn_; }
    /// k-of-n only: number of copies n.
    [[nodiscard]] std::size_t kofn_copies() const noexcept { return n_; }
    /// k-of-n only: simultaneous channel failures that violate (n - k + 1).
    [[nodiscard]] std::size_t kofn_failures_needed() const noexcept {
        return n_ - k_ + 1;
    }

    /// Violation rate of the subtree (small-rate approximations per gate).
    [[nodiscard]] Frequency evaluate() const;

    /// All leaf elements in the subtree (name + rate + cause), for budget
    /// accounting. Synthetic k-of-n children are expanded logically.
    [[nodiscard]] std::vector<CauseContribution> leaf_contributions() const;

    /// Indented rendering of the architecture.
    [[nodiscard]] std::string render(int indent = 0) const;

    /// Top-event rate when one leaf's rate is scaled by `factor`; the leaf
    /// is addressed by pointer identity (use the entries of
    /// `leaf_elasticities` or walk `children()`); for synthetic k-of-n
    /// nodes the shared child rate is scaled. Unknown targets throw.
    [[nodiscard]] Frequency evaluate_with_scaled(const ArchNode* target,
                                                 double factor) const;

private:
    /// True if `target` is this node or inside this subtree.
    [[nodiscard]] bool contains(const ArchNode* target) const noexcept;

    std::string name_;
    GateKind kind_ = GateKind::Or;
    std::vector<std::unique_ptr<ArchNode>> children_;
    double tau_hours_ = 0.0;
    // Leaf payload.
    Frequency rate_;
    CauseCategory cause_ = CauseCategory::SystematicDesign;
    // Synthetic homogeneous k-of-n payload.
    bool synthetic_kofn_ = false;
    std::size_t k_ = 0;
    std::size_t n_ = 0;
};

/// Importance of one element for the top event.
struct LeafImportance {
    const ArchNode* leaf = nullptr;  ///< Leaf (or synthetic k-of-n) node.
    std::string name;
    CauseCategory cause = CauseCategory::SystematicDesign;
    Frequency rate;                  ///< The element's own rate.
    /// Elasticity: relative change of the top rate per relative change of
    /// this element's rate (d ln Top / d ln lambda). 1 for a pure series
    /// element; n for the shared channel of an all-must-fail n-redundancy.
    double elasticity = 0.0;
};

/// Ranks all leaves (and synthetic k-of-n blocks) of the tree by their
/// contribution share to the top rate: share_i = elasticity-weighted
/// fraction computed by finite differences. Sorted descending by
/// (elasticity * rate contribution). The tree must have a positive top rate.
[[nodiscard]] std::vector<LeafImportance> leaf_elasticities(const ArchNode& top);

/// A cut set: a set of leaf names whose joint failure violates the top
/// requirement. Names are sorted; synthetic k-of-n channels appear as
/// "name[i]" for the i-th of the n copies.
using CutSet = std::vector<std::string>;

/// The minimal cut sets of the tree (MOCUS-style expansion: OR = union,
/// AND = cross product, k-of-n = all combinations of n-k+1 channel
/// failures), with non-minimal supersets removed. Leaf names should be
/// unique for the result to be meaningful. Sorted by size, then
/// lexicographically - single-point-of-failure sets come first.
[[nodiscard]] std::vector<CutSet> minimal_cut_sets(const ArchNode& top);

/// Splits a top-level violation budget equally over `elements` series
/// elements: each receives budget / elements. This is the sound
/// quantitative counterpart of ASIL inheritance (which would give each
/// element the *full* goal integrity, Sec. V's third observation).
[[nodiscard]] Frequency equal_series_split(Frequency budget, std::size_t elements);

}  // namespace qrn::quant
