#include "stats/running_summary.h"

#include <cmath>

namespace qrn::stats {

void RunningSummary::add(double x) noexcept {
    if (n_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        if (x < min_) min_ = x;
        if (x > max_) max_ = x;
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningSummary::variance() const noexcept {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningSummary::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace qrn::stats
