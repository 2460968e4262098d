// Exposure estimation: rating E from operating data instead of assumption.
//
// Sec. II-B(2): "What situations the ADS will be exposed to will depend on
// its decisions... The fact that its exposure for certain situations will
// be design choice dependent needs to be considered." And Sec. II-B(4):
// situational frequencies are time/place dependent, so "it would be
// natural to allow the ADS to get applicable data for its current context,
// rather than statically do such coding in a HARA."
//
// This module estimates the classical E ratings *empirically*: it samples
// in-ODD environments from the simulator's exposure model, maps each onto
// the HARA situation catalog, and rates each situation by its observed
// share of operating time (E4 >= 10%, E3 >= 1%, E2 >= 0.1%, E1 > 0, E0
// never observed - the customary duration-based banding). Restricting the
// ODD visibly moves ratings (snow situations drop to E0), quantifying why
// a fixed design-time E is unsound for an ADS.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "hara/risk_graph.h"
#include "hara/situation.h"
#include "sim/odd.h"

namespace qrn::hara {

/// Exposure estimate of one situation.
struct SituationExposure {
    std::uint64_t situation_index = 0;
    std::uint64_t samples = 0;    ///< Operating stretches observed in it.
    double share = 0.0;           ///< Fraction of operating time.
    Exposure rating = Exposure::E0;
};

/// Duration-share to E rating per the customary banding.
[[nodiscard]] Exposure exposure_rating_for_share(double share) noexcept;

/// Maps one sampled environment onto the ads_example() situation catalog.
/// Only meaningful for that catalog's dimension semantics (road type,
/// speed band, weather, lighting, traffic density, road condition,
/// special actors); throws if the catalog does not match.
[[nodiscard]] OperationalSituation map_environment(const sim::Environment& env,
                                                   const SituationCatalog& catalog);

/// Samples `samples` in-ODD operating stretches and rates every observed
/// situation. Unobserved situations are absent from the result (E0).
/// Deterministic for a given seed.
[[nodiscard]] std::vector<SituationExposure> estimate_exposure(
    const SituationCatalog& catalog, const sim::Odd& odd, std::uint64_t samples,
    std::uint64_t seed);

}  // namespace qrn::hara
