// Consequence classes and their ordering invariants.
#include "qrn/severity.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn {
namespace {

TEST(ConsequenceClassSet, PaperExampleStructure) {
    const auto set = ConsequenceClassSet::paper_example();
    ASSERT_EQ(set.size(), 6u);
    for (std::size_t i = 0; i < set.size(); ++i) {
        EXPECT_EQ(set.at(i).domain,
                  i < 3 ? ConsequenceDomain::Quality : ConsequenceDomain::Safety);
    }
    EXPECT_EQ(set.at(0).id, "vQ1");
    EXPECT_EQ(set.at(5).id, "vS3");
    EXPECT_EQ(set.at(*set.index_of("vS2")).name, "Severe injuries");
}

TEST(ConsequenceClassSet, IndexLookup) {
    const auto set = ConsequenceClassSet::paper_example();
    EXPECT_EQ(set.index_of("vQ2"), 1u);
    EXPECT_FALSE(set.index_of("nope").has_value());
    EXPECT_THROW(set.at(6), std::out_of_range);
}

TEST(ConsequenceClassSet, RejectsEmpty) {
    EXPECT_THROW(ConsequenceClassSet({}), std::invalid_argument);
}

TEST(ConsequenceClassSet, RejectsDuplicateIds) {
    EXPECT_THROW(ConsequenceClassSet({
                     {"v1", "a", ConsequenceDomain::Safety, 1, ""},
                     {"v1", "b", ConsequenceDomain::Safety, 2, ""},
                 }),
                 std::invalid_argument);
}

TEST(ConsequenceClassSet, RejectsEmptyId) {
    EXPECT_THROW(ConsequenceClassSet({{"", "a", ConsequenceDomain::Safety, 1, ""}}),
                 std::invalid_argument);
}

TEST(ConsequenceClassSet, RejectsNonIncreasingRanks) {
    EXPECT_THROW(ConsequenceClassSet({
                     {"v1", "a", ConsequenceDomain::Safety, 2, ""},
                     {"v2", "b", ConsequenceDomain::Safety, 2, ""},
                 }),
                 std::invalid_argument);
    EXPECT_THROW(ConsequenceClassSet({
                     {"v1", "a", ConsequenceDomain::Safety, 3, ""},
                     {"v2", "b", ConsequenceDomain::Safety, 1, ""},
                 }),
                 std::invalid_argument);
}

TEST(ConsequenceClassSet, RejectsQualityAfterSafety) {
    EXPECT_THROW(ConsequenceClassSet({
                     {"vS", "a", ConsequenceDomain::Safety, 1, ""},
                     {"vQ", "b", ConsequenceDomain::Quality, 2, ""},
                 }),
                 std::invalid_argument);
}

TEST(ConsequenceClassSet, SafetyOnlyNormIsValid) {
    const ConsequenceClassSet set({
        {"vS1", "light", ConsequenceDomain::Safety, 1, ""},
        {"vS2", "severe", ConsequenceDomain::Safety, 2, ""},
    });
    EXPECT_EQ(set.size(), 2u);
    for (const auto& c : set.all()) EXPECT_EQ(c.domain, ConsequenceDomain::Safety);
}

TEST(ConsequenceDomain, Naming) {
    EXPECT_EQ(to_string(ConsequenceDomain::Quality), "quality");
    EXPECT_EQ(to_string(ConsequenceDomain::Safety), "safety");
}

}  // namespace
}  // namespace qrn
