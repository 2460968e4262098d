#include "hara/situation.h"

#include <stdexcept>

namespace qrn::hara {

SituationCatalog::SituationCatalog(std::vector<SituationDimension> dimensions)
    : dimensions_(std::move(dimensions)) {
    if (dimensions_.empty()) {
        throw std::invalid_argument("SituationCatalog: needs at least one dimension");
    }
    for (const auto& d : dimensions_) {
        if (d.values.empty()) {
            throw std::invalid_argument("SituationCatalog: dimension '" + d.name +
                                        "' has no values");
        }
    }
}

std::uint64_t SituationCatalog::size() const noexcept {
    std::uint64_t n = 1;
    for (const auto& d : dimensions_) n *= d.values.size();
    return n;
}

OperationalSituation SituationCatalog::at(std::uint64_t index) const {
    if (index >= size()) throw std::out_of_range("SituationCatalog::at: bad index");
    OperationalSituation s;
    s.value_indices.resize(dimensions_.size());
    for (std::size_t d = dimensions_.size(); d-- > 0;) {
        const auto card = dimensions_[d].values.size();
        s.value_indices[d] = static_cast<std::size_t>(index % card);
        index /= card;
    }
    return s;
}

SituationCatalog SituationCatalog::with_dimension(SituationDimension dimension) const {
    auto dims = dimensions_;
    dims.push_back(std::move(dimension));
    return SituationCatalog(std::move(dims));
}

SituationCatalog SituationCatalog::ads_example() {
    return SituationCatalog({
        {"road type", {"highway", "rural", "urban", "parking"}},
        {"speed band", {"0-30", "30-50", "50-80", "80-110", "110-130"}},
        {"weather", {"clear", "rain", "snow", "fog"}},
        {"lighting", {"day", "dusk", "night"}},
        {"traffic density", {"low", "medium", "high"}},
        {"road condition", {"dry", "wet", "icy"}},
        {"special actors", {"none", "VRU nearby", "animal risk", "roadworks"}},
    });
}

}  // namespace qrn::hara
