// ASIL algebra: ordering and the ISO 26262-9 decomposition schemes.
#include "hara/asil.h"

#include <gtest/gtest.h>

namespace qrn::hara {
namespace {

TEST(AsilOrder, TotalOrder) {
    EXPECT_TRUE(asil_less(Asil::QM, Asil::A));
    EXPECT_TRUE(asil_less(Asil::A, Asil::B));
    EXPECT_TRUE(asil_less(Asil::B, Asil::C));
    EXPECT_TRUE(asil_less(Asil::C, Asil::D));
    EXPECT_FALSE(asil_less(Asil::D, Asil::D));
}

TEST(Decomposition, SchemesForD) {
    const auto ds = permitted_decompositions(Asil::D);
    ASSERT_EQ(ds.size(), 3u);
    EXPECT_TRUE(is_permitted_decomposition(Asil::D, Asil::C, Asil::A));
    EXPECT_TRUE(is_permitted_decomposition(Asil::D, Asil::B, Asil::B));
    EXPECT_TRUE(is_permitted_decomposition(Asil::D, Asil::D, Asil::QM));
    EXPECT_FALSE(is_permitted_decomposition(Asil::D, Asil::A, Asil::A));
    EXPECT_FALSE(is_permitted_decomposition(Asil::D, Asil::QM, Asil::QM));
}

TEST(Decomposition, SchemesForCAndB) {
    EXPECT_TRUE(is_permitted_decomposition(Asil::C, Asil::B, Asil::A));
    EXPECT_TRUE(is_permitted_decomposition(Asil::C, Asil::C, Asil::QM));
    EXPECT_FALSE(is_permitted_decomposition(Asil::C, Asil::A, Asil::A));
    EXPECT_TRUE(is_permitted_decomposition(Asil::B, Asil::A, Asil::A));
    EXPECT_TRUE(is_permitted_decomposition(Asil::B, Asil::B, Asil::QM));
    EXPECT_FALSE(is_permitted_decomposition(Asil::B, Asil::QM, Asil::QM));
}

TEST(Decomposition, OrderOfPairIsIrrelevant) {
    EXPECT_TRUE(is_permitted_decomposition(Asil::D, Asil::A, Asil::C));
    EXPECT_TRUE(is_permitted_decomposition(Asil::C, Asil::A, Asil::B));
}

TEST(Decomposition, QmHasNone) {
    EXPECT_TRUE(permitted_decompositions(Asil::QM).empty());
}

TEST(Decomposition, ContextIsRecorded) {
    for (const auto& d : permitted_decompositions(Asil::C)) {
        EXPECT_EQ(d.context, Asil::C);
    }
}

TEST(Inheritance, PreservesAsilRegardlessOfFanout) {
    // The rule the paper criticises: inheritance does not know about N.
    EXPECT_EQ(inherit(Asil::A), Asil::A);
    EXPECT_EQ(inherit(Asil::D), Asil::D);
}

}  // namespace
}  // namespace qrn::hara
