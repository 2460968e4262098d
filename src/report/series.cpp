#include "report/series.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace qrn::report {

namespace {

std::size_t label_width(const std::vector<BarItem>& items) {
    std::size_t w = 0;
    for (const auto& item : items) w = std::max(w, item.label.size());
    return w;
}

std::string value_text(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3e", v);
    return buf;
}

}  // namespace

std::string log_bar_chart(const std::vector<BarItem>& items, std::size_t width) {
    double min_v = 0.0, max_v = 0.0;
    bool any = false;
    for (const auto& item : items) {
        if (item.value <= 0.0) continue;
        if (!any) {
            min_v = max_v = item.value;
            any = true;
        } else {
            min_v = std::min(min_v, item.value);
            max_v = std::max(max_v, item.value);
        }
    }
    const std::size_t lw = label_width(items);
    std::ostringstream os;
    const double lo = any ? std::log10(min_v) - 0.5 : 0.0;
    const double hi = any ? std::log10(max_v) : 1.0;
    const double span = std::max(hi - lo, 1e-9);
    for (const auto& item : items) {
        std::size_t n = 0;
        if (item.value > 0.0) {
            const double frac = (std::log10(item.value) - lo) / span;
            n = static_cast<std::size_t>(
                std::lround(std::clamp(frac, 0.0, 1.0) * static_cast<double>(width)));
        }
        os << item.label << std::string(lw - item.label.size(), ' ') << " |"
           << std::string(n, '#') << ' ' << value_text(item.value) << '\n';
    }
    return os.str();
}

std::string stacked_bar_chart(const std::vector<StackedBar>& bars, std::size_t width) {
    static constexpr char kFill[] = {'#', '=', '+', '*', 'o', '~', '%', '@'};
    double max_v = 0.0;
    std::size_t lw = 0;
    for (const auto& bar : bars) {
        double total = 0.0;
        for (const auto& seg : bar.segments) total += seg.value;
        max_v = std::max({max_v, total, bar.limit});
        lw = std::max(lw, bar.label.size());
    }
    std::ostringstream os;
    for (const auto& bar : bars) {
        os << bar.label << std::string(lw - bar.label.size(), ' ') << " |";
        double total = 0.0;
        std::string fill;
        for (std::size_t s = 0; s < bar.segments.size(); ++s) {
            const double v = bar.segments[s].value;
            total += v;
            const auto n = max_v <= 0.0
                               ? std::size_t{0}
                               : static_cast<std::size_t>(std::lround(
                                     v / max_v * static_cast<double>(width)));
            fill.append(n, kFill[s % sizeof kFill]);
        }
        // Budget line position on the same scale.
        if (bar.limit > 0.0 && max_v > 0.0) {
            const auto pos = static_cast<std::size_t>(
                std::lround(bar.limit / max_v * static_cast<double>(width)));
            if (fill.size() < pos) fill.append(pos - fill.size(), ' ');
            fill.insert(fill.begin() + static_cast<std::ptrdiff_t>(std::min(pos, fill.size())),
                        '|');
        }
        os << fill << "  total=" << value_text(total);
        if (bar.limit > 0.0) os << " limit=" << value_text(bar.limit);
        os << '\n';
    }
    // Legend from the first bar's segment labels (shared ordering assumed).
    if (!bars.empty() && !bars.front().segments.empty()) {
        os << "legend:";
        for (std::size_t s = 0; s < bars.front().segments.size(); ++s) {
            os << ' ' << kFill[s % sizeof kFill] << '=' << bars.front().segments[s].label;
        }
        os << '\n';
    }
    return os.str();
}

}  // namespace qrn::report
