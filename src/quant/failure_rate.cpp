#include "quant/failure_rate.h"

#include <cmath>
#include <stdexcept>

namespace qrn::quant {

std::string_view to_string(CauseCategory cause) noexcept {
    switch (cause) {
        case CauseCategory::SystematicDesign: return "systematic";
        case CauseCategory::RandomHardware: return "random-hw";
        case CauseCategory::PerformanceLimitation: return "performance";
    }
    return "?";
}

Frequency parallel_rate(Frequency a, Frequency b, double tau_hours) {
    if (!(tau_hours > 0.0) || !std::isfinite(tau_hours)) {
        throw std::invalid_argument("parallel_rate: tau_hours must be > 0");
    }
    // Both channels must be down within one window: first either fails
    // (rate a+b), then the other fails within tau. Small-rate approximation.
    const double la = a.per_hour_value();
    const double lb = b.per_hour_value();
    return Frequency::per_hour(la * lb * tau_hours * 2.0);
}

Frequency k_of_n_rate(std::size_t k, std::size_t n, Frequency lambda, double tau_hours) {
    if (k == 0 || k > n) throw std::invalid_argument("k_of_n_rate: requires 1 <= k <= n");
    if (n > 20) throw std::invalid_argument("k_of_n_rate: n too large for exact combinatorics");
    const double l = lambda.per_hour_value();
    if (k == n) {
        // Any single failure violates: series of n identical channels.
        return Frequency::per_hour(static_cast<double>(n) * l);
    }
    if (!(tau_hours > 0.0) || !std::isfinite(tau_hours)) {
        throw std::invalid_argument("k_of_n_rate: tau_hours must be > 0");
    }
    // Violation when m = n - k + 1 channels are simultaneously failed
    // within the window. Leading-order term: choose the m channels, the
    // last failure arrives at rate l while the other m-1 are down
    // (probability (l*tau)^(m-1) each), times the m orderings collapsing
    // into m * C(n, m) * l * (l*tau)^(m-1).
    const std::size_t m = n - k + 1;
    double choose = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
        choose *= static_cast<double>(n - i) / static_cast<double>(i + 1);
    }
    const double rate = static_cast<double>(m) * choose * l *
                        std::pow(l * tau_hours, static_cast<double>(m - 1));
    return Frequency::per_hour(rate);
}

}  // namespace qrn::quant
