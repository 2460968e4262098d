// Operational situations and the situation-catalog model.
//
// The classical HARA enumerates operational situations as analysis input.
// Sec. II-B(1) argues this is intractable for an ADS: "the number of
// situations to consider is virtually infinite, unless the feature has a
// very limited ODD". We model situations as combinations over descriptive
// dimensions so that the SEC2 bench can regenerate the combinatorial-growth
// argument quantitatively: catalog size is the product of dimension
// cardinalities and explodes as ODD dimensions are added, while the QRN's
// safety-goal count stays put.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace qrn::hara {

/// One descriptive dimension of an operational situation (road type,
/// weather, speed band, ...), with its discrete value labels.
struct SituationDimension {
    std::string name;
    std::vector<std::string> values;  ///< At least one.
};

/// One concrete operational situation: a value index per dimension.
struct OperationalSituation {
    std::vector<std::size_t> value_indices;
};

/// A catalog of situations = the cross product of dimensions.
class SituationCatalog {
public:
    /// Requires at least one dimension, each with at least one value.
    explicit SituationCatalog(std::vector<SituationDimension> dimensions);

    [[nodiscard]] const std::vector<SituationDimension>& dimensions() const noexcept {
        return dimensions_;
    }

    /// Number of situations in the full cross product.
    [[nodiscard]] std::uint64_t size() const noexcept;

    /// The i-th situation in lexicographic order. Requires i < size().
    [[nodiscard]] OperationalSituation at(std::uint64_t index) const;

    /// Returns a catalog extended by one more dimension (used by the
    /// growth bench to show multiplicative explosion).
    [[nodiscard]] SituationCatalog with_dimension(SituationDimension dimension) const;

    /// A representative ADS situation model: road type (4), speed band (5),
    /// weather (4), lighting (3), traffic density (3), road condition (3),
    /// special actors (4) -> 8640 situations before scenario dynamics are
    /// even considered.
    [[nodiscard]] static SituationCatalog ads_example();

private:
    std::vector<SituationDimension> dimensions_;
};

}  // namespace qrn::hara
