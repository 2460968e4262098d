// Operational design domain (ODD) model and environment conditions.
//
// The paper leans on the ODD in two ways: the risk norm "needs to be valid
// inside the entire ODD regardless of where, when, and how the feature is
// used" (Sec. III-A), and the solution domain may trade "adjusting critical
// ODD parameters to ease difficult verification tasks" (Sec. IV). The Odd
// type supports containment checks against sampled environments; see also
// Gyllenhammar et al. [5] cited by the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace qrn::sim {

/// Weather states the environment sampler distinguishes.
enum class Weather : std::uint8_t { Clear, Rain, Snow, Fog };

/// Lighting states.
enum class Lighting : std::uint8_t { Day, Dusk, Night };

/// Momentary external conditions of one operational stretch.
struct Environment {
    Weather weather = Weather::Clear;
    Lighting lighting = Lighting::Day;
    double speed_limit_kmh = 50.0;
    double friction = 0.9;            ///< Tyre-road friction coefficient.
    double vru_density = 1.0;         ///< Relative VRU crossing intensity (1 = urban baseline).
    double traffic_density = 1.0;     ///< Relative vehicle encounter intensity.
    double animal_density = 0.1;      ///< Relative wildlife crossing intensity.
};

/// The declared ODD: limits within which the ADS feature may operate.
struct Odd {
    double max_speed_limit_kmh = 60.0;
    bool allow_rain = true;
    bool allow_snow = false;
    bool allow_fog = false;
    bool allow_night = true;
    double min_friction = 0.3;
    double max_vru_density = 5.0;

    /// True iff the environment is inside the ODD.
    [[nodiscard]] bool contains(const Environment& env) const noexcept;

    /// Human-readable summary.
    [[nodiscard]] std::string describe() const;

    /// Urban ODD used by the examples: <= 50 km/h streets, rain and night
    /// allowed, snow/fog excluded.
    [[nodiscard]] static Odd urban();

    /// Highway ODD: 120 km/h, low VRU density, no snow/fog.
    [[nodiscard]] static Odd highway();

    /// The preset called `name` ("urban", "highway"), or nullopt: the one
    /// name table behind --odd and campaign plans.
    [[nodiscard]] static std::optional<Odd> named(std::string_view name);
};

}  // namespace qrn::sim
