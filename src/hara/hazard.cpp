#include "hara/hazard.h"

#include <array>
#include <stdexcept>

namespace qrn::hara {

std::string_view to_string(Guideword g) noexcept {
    switch (g) {
        case Guideword::No: return "no";
        case Guideword::Unintended: return "unintended";
        case Guideword::More: return "more";
        case Guideword::Less: return "less";
        case Guideword::Early: return "early";
        case Guideword::Late: return "late";
        case Guideword::Reverse: return "reverse";
        case Guideword::Stuck: return "stuck";
    }
    return "?";
}

Guideword guideword_from_index(std::size_t index) {
    static constexpr std::array<Guideword, kGuidewordCount> kAll = {
        Guideword::No,    Guideword::Unintended, Guideword::More,    Guideword::Less,
        Guideword::Early, Guideword::Late,       Guideword::Reverse, Guideword::Stuck,
    };
    if (index >= kAll.size()) throw std::out_of_range("guideword_from_index: bad index");
    return kAll[index];
}

std::string Hazard::describe() const {
    return std::string(to_string(guideword)) + " " + function.name;
}

std::vector<Hazard> derive_hazards(const std::vector<VehicleFunction>& functions) {
    std::vector<Hazard> out;
    out.reserve(functions.size() * kGuidewordCount);
    for (const auto& f : functions) {
        for (std::size_t g = 0; g < kGuidewordCount; ++g) {
            out.push_back(Hazard{f, guideword_from_index(g)});
        }
    }
    return out;
}

std::vector<VehicleFunction> ads_functions() {
    return {
        {"longitudinal braking", "brake actuation commanded by the ADS"},
        {"longitudinal acceleration", "powertrain torque commanded by the ADS"},
        {"lateral steering", "steering commanded by the ADS"},
        {"object perception", "detection and tracking of surrounding actors"},
        {"free-space estimation", "determination of drivable area"},
        {"trajectory prediction", "prediction of other actors' motion"},
        {"tactical planning", "manoeuvre and margin decisions"},
        {"localisation", "position within the ODD map"},
        {"ODD monitoring", "detection of ODD exit conditions"},
        {"minimal risk manoeuvre", "transition to a safe state"},
    };
}

}  // namespace qrn::hara
