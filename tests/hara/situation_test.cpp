// Situation catalogs: cross-product arithmetic and the growth property
// behind the intractability argument.
#include "hara/situation.h"

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qrn::hara {
namespace {

SituationCatalog tiny() {
    return SituationCatalog({
        {"road", {"urban", "rural"}},
        {"weather", {"clear", "rain", "snow"}},
    });
}

TEST(SituationCatalog, SizeIsProductOfCardinalities) {
    EXPECT_EQ(tiny().size(), 6u);
    EXPECT_EQ(SituationCatalog::ads_example().size(),
              4u * 5u * 4u * 3u * 3u * 3u * 4u);
}

TEST(SituationCatalog, LexicographicEnumeration) {
    const auto cat = tiny();
    using Indices = std::vector<std::size_t>;
    EXPECT_EQ(cat.at(0).value_indices, (Indices{0, 0}));  // urban / clear
    EXPECT_EQ(cat.at(1).value_indices, (Indices{0, 1}));  // urban / rain
    EXPECT_EQ(cat.at(2).value_indices, (Indices{0, 2}));  // urban / snow
    EXPECT_EQ(cat.at(3).value_indices, (Indices{1, 0}));  // rural / clear
    EXPECT_EQ(cat.at(5).value_indices, (Indices{1, 2}));  // rural / snow
}

TEST(SituationCatalog, EnumerationCoversAllCombinationsUniquely) {
    const auto cat = tiny();
    std::set<std::vector<std::size_t>> seen;
    for (std::uint64_t i = 0; i < cat.size(); ++i) {
        seen.insert(cat.at(i).value_indices);
    }
    EXPECT_EQ(seen.size(), cat.size());
}

TEST(SituationCatalog, WithDimensionMultiplies) {
    const auto grown = tiny().with_dimension({"lighting", {"day", "night"}});
    EXPECT_EQ(grown.size(), 12u);
    // Exponential growth: adding k binary dimensions multiplies by 2^k -
    // the paper's "virtually infinite" argument in miniature.
    auto cat = tiny();
    for (int k = 0; k < 10; ++k) {
        cat = cat.with_dimension({"dim" + std::to_string(k), {"a", "b"}});
    }
    EXPECT_EQ(cat.size(), 6u * 1024u);
}

TEST(SituationCatalog, Validation) {
    EXPECT_THROW(SituationCatalog(std::vector<SituationDimension>{}),
                 std::invalid_argument);
    EXPECT_THROW(
        SituationCatalog(std::vector<SituationDimension>{{"empty", {}}}),
        std::invalid_argument);
    const auto cat = tiny();
    EXPECT_THROW(cat.at(6), std::out_of_range);
}

}  // namespace
}  // namespace qrn::hara
