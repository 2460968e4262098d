// Streaming summary statistics.
//
// Used by campaigns to summarise per-fleet incident rates (the "per-fleet
// rate mean/stddev" of `qrn campaign`'s "fleets:" line).
#pragma once

#include <cstdint>

namespace qrn::stats {

/// Streaming mean/variance/extremes via Welford's algorithm.
class RunningSummary {
public:
    void add(double x) noexcept;

    [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
    [[nodiscard]] double mean() const noexcept { return mean_; }
    /// Unbiased sample variance; 0 for fewer than two samples.
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    [[nodiscard]] double min() const noexcept { return min_; }
    [[nodiscard]] double max() const noexcept { return max_; }

private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

}  // namespace qrn::stats
