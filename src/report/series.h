// ASCII rendering of one-dimensional series: horizontal bar charts (for the
// per-class budget bars of Fig. 3/5) and log-scale staircase plots (for the
// acceptable-risk curves of Fig. 1/2). Rendering is pure text so figure
// benches need no plotting dependency.
#pragma once

#include <string>
#include <vector>

namespace qrn::report {

/// One labelled value in a bar chart.
struct BarItem {
    std::string label;
    double value = 0.0;
};

/// Renders bars on a log10 scale between the data's min and max positive
/// values. Non-positive values render as empty bars. Suitable for
/// frequencies spanning many orders of magnitude.
[[nodiscard]] std::string log_bar_chart(const std::vector<BarItem>& items,
                                        std::size_t width = 50);

/// A stacked bar: one label with multiple named segments (e.g. one
/// consequence class with contributions from several incident types).
struct StackedBar {
    std::string label;
    std::vector<BarItem> segments;
    double limit = 0.0;  ///< Budget line; drawn as '|' when > 0.
};

/// Renders stacked horizontal bars with a shared linear scale, one distinct
/// fill character per segment index, plus a legend.
[[nodiscard]] std::string stacked_bar_chart(const std::vector<StackedBar>& bars,
                                            std::size_t width = 50);

}  // namespace qrn::report
