#include "sim/odd.h"

#include <sstream>

namespace qrn::sim {

bool Odd::contains(const Environment& env) const noexcept {
    if (env.speed_limit_kmh > max_speed_limit_kmh) return false;
    switch (env.weather) {
        case Weather::Clear: break;
        case Weather::Rain:
            if (!allow_rain) return false;
            break;
        case Weather::Snow:
            if (!allow_snow) return false;
            break;
        case Weather::Fog:
            if (!allow_fog) return false;
            break;
    }
    if (env.lighting == Lighting::Night && !allow_night) return false;
    if (env.friction < min_friction) return false;
    if (env.vru_density > max_vru_density) return false;
    return true;
}

std::string Odd::describe() const {
    std::ostringstream os;
    os << "ODD{<=" << max_speed_limit_kmh << " km/h"
       << (allow_rain ? ", rain" : "") << (allow_snow ? ", snow" : "")
       << (allow_fog ? ", fog" : "") << (allow_night ? ", night" : "")
       << ", friction>=" << min_friction << ", vru<=" << max_vru_density << "}";
    return os.str();
}

Odd Odd::urban() {
    Odd odd;
    odd.max_speed_limit_kmh = 50.0;
    odd.allow_rain = true;
    odd.allow_snow = false;
    odd.allow_fog = false;
    odd.allow_night = true;
    odd.min_friction = 0.4;
    odd.max_vru_density = 5.0;
    return odd;
}

Odd Odd::highway() {
    Odd odd;
    odd.max_speed_limit_kmh = 120.0;
    odd.allow_rain = true;
    odd.allow_snow = false;
    odd.allow_fog = false;
    odd.allow_night = true;
    odd.min_friction = 0.4;
    odd.max_vru_density = 0.2;
    return odd;
}

std::optional<Odd> Odd::named(std::string_view name) {
    if (name == "urban") return urban();
    if (name == "highway") return highway();
    return std::nullopt;
}

}  // namespace qrn::sim
