// HAZOP hazard derivation.
#include "hara/hazard.h"

#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn::hara {
namespace {

TEST(Hazard, DeriveAppliesEveryGuidewordToEveryFunction) {
    const auto functions = ads_functions();
    const auto hazards = derive_hazards(functions);
    EXPECT_EQ(hazards.size(), functions.size() * kGuidewordCount);
    std::set<std::string> unique;
    for (const auto& h : hazards) unique.insert(h.describe());
    EXPECT_EQ(unique.size(), hazards.size());
}

TEST(Hazard, DescribeCombinesGuidewordAndFunction) {
    const Hazard h{{"longitudinal braking", ""}, Guideword::Less};
    EXPECT_EQ(h.describe(), "less longitudinal braking");
}

TEST(Guideword, NamingAndIndexing) {
    EXPECT_EQ(to_string(Guideword::Unintended), "unintended");
    EXPECT_EQ(to_string(Guideword::Stuck), "stuck");
    for (std::size_t i = 0; i < kGuidewordCount; ++i) {
        EXPECT_NO_THROW(guideword_from_index(i));
    }
    EXPECT_THROW(guideword_from_index(kGuidewordCount), std::out_of_range);
}

}  // namespace
}  // namespace qrn::hara
