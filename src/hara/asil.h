// ASIL algebra: ordering, decomposition and inheritance (ISO 26262 Part 9).
//
// Sec. V of the paper argues that for ADS architectures the qualitative
// ASIL decomposition and inheritance rules become problematic. To make that
// argument executable we implement the rules themselves: the permitted
// decomposition pairs of ISO 26262-9 Clause 5, and inheritance (every
// dependent requirement inherits the goal's ASIL regardless of how many
// elements share it). The quant library then contrasts these with proper
// frequency arithmetic.
#pragma once

#include <vector>

#include "hara/risk_graph.h"

namespace qrn::hara {

/// One permitted decomposition of a requirement's ASIL onto two redundant
/// requirements (ISO 26262-9:2018, Clause 5). The notation "B(D)" (the
/// decomposed requirement keeps D's confirmation measures) is tracked via
/// `context`, the original ASIL.
struct Decomposition {
    Asil first;
    Asil second;
    Asil context;  ///< The ASIL being decomposed.
};

/// All decomposition schemes ISO 26262-9 permits for the given ASIL.
/// D -> {C+A, B+B, D+QM}; C -> {B+A, C+QM}; B -> {A+A, B+QM};
/// A -> {A+QM}; QM -> {} (nothing to decompose).
[[nodiscard]] std::vector<Decomposition> permitted_decompositions(Asil asil);

/// True iff decomposing `context` into the given pair is permitted.
[[nodiscard]] bool is_permitted_decomposition(Asil context, Asil first, Asil second);

/// ASIL inheritance: a safety requirement derived from a goal inherits the
/// goal's ASIL unchanged (ISO 26262-9 Clause 6), independent of how many
/// sibling requirements exist - the assumption Sec. V challenges.
[[nodiscard]] inline Asil inherit(Asil goal_asil) noexcept { return goal_asil; }

/// Total order QM < A < B < C < D.
[[nodiscard]] bool asil_less(Asil a, Asil b) noexcept;

}  // namespace qrn::hara
