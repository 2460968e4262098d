// Hazards and HAZOP-style malfunction derivation.
//
// In ISO 26262 a hazard is a "potential source of harm caused by
// malfunctioning behaviour of the item". Classical practice derives
// malfunctions by applying HAZOP guidewords (IEC 61882) to each vehicle
// function - the practice Sec. II-B(3) argues is "less suitable for an
// ADS". We implement it for the baseline comparison.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace qrn::hara {

/// HAZOP guidewords as commonly applied to automotive E/E functions.
enum class Guideword : std::uint8_t {
    No,          ///< Function not provided when demanded.
    Unintended,  ///< Function provided without demand.
    More,        ///< Too much / too strong.
    Less,        ///< Too little / too weak.
    Early,       ///< Provided too early.
    Late,        ///< Provided too late.
    Reverse,     ///< Opposite direction/effect.
    Stuck,       ///< Output frozen at last value.
};

inline constexpr std::size_t kGuidewordCount = 8;

[[nodiscard]] std::string_view to_string(Guideword g) noexcept;
[[nodiscard]] Guideword guideword_from_index(std::size_t index);

/// A vehicle-level function subjected to the HAZOP.
struct VehicleFunction {
    std::string name;         ///< E.g. "longitudinal braking".
    std::string description;
};

/// One derived hazard: a guideword applied to a function.
struct Hazard {
    VehicleFunction function;
    Guideword guideword = Guideword::No;

    /// E.g. "no longitudinal braking".
    [[nodiscard]] std::string describe() const;
};

/// Applies every guideword to every function (the standard HAZOP sweep).
[[nodiscard]] std::vector<Hazard> derive_hazards(
    const std::vector<VehicleFunction>& functions);

/// A representative function list for an ADS (motion control plus the
/// tactical/perceptual functions that make HAZOP-per-function awkward).
[[nodiscard]] std::vector<VehicleFunction> ads_functions();

}  // namespace qrn::hara
