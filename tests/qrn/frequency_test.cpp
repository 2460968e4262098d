// Frequency/ExposureHours strong types: construction, algebra, formatting.
#include "qrn/frequency.h"

#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn {
namespace {

TEST(ExposureHours, ConstructionAndDomain) {
    EXPECT_DOUBLE_EQ(ExposureHours(12.5).hours(), 12.5);
    EXPECT_DOUBLE_EQ(ExposureHours().hours(), 0.0);
    EXPECT_THROW(ExposureHours(-1.0), std::invalid_argument);
    EXPECT_THROW(ExposureHours(std::numeric_limits<double>::infinity()),
                 std::invalid_argument);
}

TEST(ExposureHours, Addition) {
    ExposureHours total(2.0);
    total += ExposureHours(3.5);
    EXPECT_DOUBLE_EQ(total.hours(), 5.5);
}

TEST(Frequency, NamedConstructors) {
    EXPECT_DOUBLE_EQ(Frequency::per_hour(1e-7).per_hour_value(), 1e-7);
    EXPECT_DOUBLE_EQ(Frequency::of_count(5.0, ExposureHours(100.0)).per_hour_value(),
                     0.05);
}

TEST(Frequency, ConstructionDomain) {
    EXPECT_THROW(Frequency::per_hour(-1.0), std::invalid_argument);
    EXPECT_THROW(Frequency::per_hour(std::numeric_limits<double>::quiet_NaN()),
                 std::invalid_argument);
    EXPECT_THROW(Frequency::of_count(-1.0, ExposureHours(1.0)), std::invalid_argument);
    EXPECT_THROW(Frequency::of_count(1.0, ExposureHours(0.0)), std::invalid_argument);
}

TEST(Frequency, ConeAlgebra) {
    auto a = Frequency::per_hour(2e-6);
    EXPECT_DOUBLE_EQ((a * 0.5).per_hour_value(), 1e-6);
    EXPECT_THROW(a * -1.0, std::invalid_argument);
    a += Frequency::per_hour(3e-6);
    EXPECT_DOUBLE_EQ(a.per_hour_value(), 5e-6);
}

TEST(Frequency, ComparisonAndZero) {
    EXPECT_LT(Frequency::per_hour(1e-8), Frequency::per_hour(1e-7));
    EXPECT_EQ(Frequency::per_hour(0.0), Frequency());
    EXPECT_TRUE(Frequency().is_zero());
    EXPECT_FALSE(Frequency::per_hour(1e-9).is_zero());
}

TEST(Frequency, Ratio) {
    const auto f = Frequency::per_hour(1e-4);
    EXPECT_DOUBLE_EQ(f.ratio(Frequency::per_hour(1e-5)), 10.0);
    EXPECT_THROW(f.ratio(Frequency()), std::invalid_argument);
}

TEST(Frequency, Formatting) {
    EXPECT_EQ(Frequency::per_hour(1e-7).to_string(), "1.0e-07 /h");
    EXPECT_EQ(Frequency::per_hour(2.5e-3).to_string(), "2.5e-03 /h");
}

}  // namespace
}  // namespace qrn
