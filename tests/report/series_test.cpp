// ASCII series rendering: bars, log bars and stacked budgets.
#include "report/series.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

namespace qrn::report {
namespace {

TEST(LogBarChart, OrdersDecadesMonotonically) {
    const auto text = log_bar_chart(
        {{"q", 1e-3}, {"s1", 1e-6}, {"s3", 1e-8}}, 40);
    // More frequent classes get longer bars.
    const auto count_hashes = [&](const std::string& label) {
        const auto start = text.find(label);
        const auto end = text.find('\n', start);
        const auto line = text.substr(start, end - start);
        return std::count(line.begin(), line.end(), '#');
    };
    EXPECT_GT(count_hashes("q "), count_hashes("s1"));
    EXPECT_GT(count_hashes("s1"), count_hashes("s3"));
}

TEST(LogBarChart, NonPositiveValuesRenderEmpty) {
    const auto text = log_bar_chart({{"zero", 0.0}, {"one", 1.0}}, 20);
    const auto zero_line = text.substr(0, text.find('\n'));
    EXPECT_EQ(zero_line.find('#'), std::string::npos);
}

TEST(StackedBarChart, ShowsSegmentsLimitAndLegend) {
    const auto text = stacked_bar_chart(
        {{"vS1",
          {{"I2", 3.0}, {"I3", 1.0}},
          5.0}},
        20);
    EXPECT_NE(text.find("vS1"), std::string::npos);
    EXPECT_NE(text.find('#'), std::string::npos);  // first segment fill
    EXPECT_NE(text.find('='), std::string::npos);  // second segment fill
    EXPECT_NE(text.find('|'), std::string::npos);  // budget line
    EXPECT_NE(text.find("legend: #=I2 ==I3"), std::string::npos);
    EXPECT_NE(text.find("limit="), std::string::npos);
}

TEST(StackedBarChart, EmptyInputRendersNothing) {
    EXPECT_TRUE(stacked_bar_chart({}, 20).empty());
}

}  // namespace
}  // namespace qrn::report
