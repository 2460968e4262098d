#include "hara/asil.h"

namespace qrn::hara {

std::vector<Decomposition> permitted_decompositions(Asil asil) {
    switch (asil) {
        case Asil::D:
            return {{Asil::C, Asil::A, Asil::D},
                    {Asil::B, Asil::B, Asil::D},
                    {Asil::D, Asil::QM, Asil::D}};
        case Asil::C:
            return {{Asil::B, Asil::A, Asil::C}, {Asil::C, Asil::QM, Asil::C}};
        case Asil::B:
            return {{Asil::A, Asil::A, Asil::B}, {Asil::B, Asil::QM, Asil::B}};
        case Asil::A:
            return {{Asil::A, Asil::QM, Asil::A}};
        case Asil::QM:
            return {};
    }
    return {};
}

bool is_permitted_decomposition(Asil context, Asil first, Asil second) {
    for (const auto& d : permitted_decompositions(context)) {
        if ((d.first == first && d.second == second) ||
            (d.first == second && d.second == first)) {
            return true;
        }
    }
    return false;
}

bool asil_less(Asil a, Asil b) noexcept {
    return static_cast<int>(a) < static_cast<int>(b);
}

}  // namespace qrn::hara
