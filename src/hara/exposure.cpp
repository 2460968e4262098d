#include "hara/exposure.h"

#include <stdexcept>

#include "sim/scenario.h"
#include "stats/rng.h"

namespace qrn::hara {

Exposure exposure_rating_for_share(double share) noexcept {
    if (share >= 0.10) return Exposure::E4;
    if (share >= 0.01) return Exposure::E3;
    if (share >= 0.001) return Exposure::E2;
    if (share > 0.0) return Exposure::E1;
    return Exposure::E0;
}

OperationalSituation map_environment(const sim::Environment& env,
                                     const SituationCatalog& catalog) {
    const auto& dims = catalog.dimensions();
    if (dims.size() != 7 || dims[0].name != "road type" ||
        dims[6].name != "special actors") {
        throw std::invalid_argument(
            "map_environment: catalog must be SituationCatalog::ads_example()");
    }
    OperationalSituation s;
    s.value_indices.resize(7);
    // road type {highway, rural, urban, parking} from the speed limit.
    s.value_indices[0] = env.speed_limit_kmh > 90.0   ? 0u
                         : env.speed_limit_kmh > 60.0 ? 1u
                         : env.speed_limit_kmh > 15.0 ? 2u
                                                      : 3u;
    // speed band {0-30, 30-50, 50-80, 80-110, 110-130}.
    s.value_indices[1] = env.speed_limit_kmh <= 30.0    ? 0u
                         : env.speed_limit_kmh <= 50.0  ? 1u
                         : env.speed_limit_kmh <= 80.0  ? 2u
                         : env.speed_limit_kmh <= 110.0 ? 3u
                                                        : 4u;
    // weather {clear, rain, snow, fog}.
    s.value_indices[2] = static_cast<std::size_t>(env.weather);
    // lighting {day, dusk, night}.
    s.value_indices[3] = static_cast<std::size_t>(env.lighting);
    // traffic density {low, medium, high}.
    s.value_indices[4] = env.traffic_density < 0.8 ? 0u
                         : env.traffic_density < 1.5 ? 1u
                                                     : 2u;
    // road condition {dry, wet, icy} from friction.
    s.value_indices[5] = env.friction >= 0.75 ? 0u : env.friction >= 0.45 ? 1u : 2u;
    // special actors {none, VRU nearby, animal risk, roadworks}.
    s.value_indices[6] = env.vru_density > 1.5    ? 1u
                         : env.animal_density > 1.0 ? 2u
                                                    : 0u;
    return s;
}

std::vector<SituationExposure> estimate_exposure(const SituationCatalog& catalog,
                                                 const sim::Odd& odd,
                                                 std::uint64_t samples,
                                                 std::uint64_t seed) {
    if (samples == 0) throw std::invalid_argument("estimate_exposure: samples >= 1");
    stats::Rng rng(seed);
    std::map<std::uint64_t, std::uint64_t> census;
    for (std::uint64_t n = 0; n < samples; ++n) {
        const auto env = sim::sample_environment(odd, rng);
        const auto situation = map_environment(env, catalog);
        // Encode the situation back to its catalog index.
        std::uint64_t index = 0;
        for (std::size_t d = 0; d < situation.value_indices.size(); ++d) {
            index = index * catalog.dimensions()[d].values.size() +
                    situation.value_indices[d];
        }
        ++census[index];
    }
    std::vector<SituationExposure> out;
    out.reserve(census.size());
    for (const auto& [index, count] : census) {
        SituationExposure e;
        e.situation_index = index;
        e.samples = count;
        e.share = static_cast<double>(count) / static_cast<double>(samples);
        e.rating = exposure_rating_for_share(e.share);
        out.push_back(e);
    }
    return out;
}

}  // namespace qrn::hara
