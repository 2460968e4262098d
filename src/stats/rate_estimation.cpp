#include "stats/rate_estimation.h"

#include <cmath>
#include <stdexcept>

#include "stats/special_functions.h"

namespace qrn::stats {

namespace {

void require_valid(const RateObservation& obs, double confidence) {
    if (obs.exposure_hours <= 0.0) {
        throw std::invalid_argument("rate estimation: exposure_hours must be > 0");
    }
    if (confidence <= 0.0 || confidence >= 1.0) {
        throw std::invalid_argument("rate estimation: confidence must be in (0, 1)");
    }
}

}  // namespace

double rate_mle(const RateObservation& obs) {
    if (obs.exposure_hours <= 0.0) {
        throw std::invalid_argument("rate_mle: exposure_hours must be > 0");
    }
    return static_cast<double>(obs.events) / obs.exposure_hours;
}

double rate_upper_bound(const RateObservation& obs, double confidence) {
    require_valid(obs, confidence);
    const double k = static_cast<double>(obs.events);
    return 0.5 * chi_squared_quantile_upper(1.0 - confidence, 2.0 * (k + 1.0)) /
           obs.exposure_hours;
}

HeterogeneityResult rate_heterogeneity_test(
    const std::vector<RateObservation>& observations) {
    if (observations.size() < 2) {
        throw std::invalid_argument("rate_heterogeneity_test: needs >= 2 observations");
    }
    double total_events = 0.0;
    double total_exposure = 0.0;
    for (const auto& obs : observations) {
        if (obs.exposure_hours <= 0.0) {
            throw std::invalid_argument(
                "rate_heterogeneity_test: exposures must be > 0");
        }
        total_events += static_cast<double>(obs.events);
        total_exposure += obs.exposure_hours;
    }
    HeterogeneityResult out;
    out.degrees_of_freedom = static_cast<double>(observations.size() - 1);
    out.pooled_rate = total_events / total_exposure;
    if (total_events == 0.0) return out;  // chi2 = 0, p = 1
    for (const auto& obs : observations) {
        const double expected = obs.exposure_hours * out.pooled_rate;
        const double delta = static_cast<double>(obs.events) - expected;
        out.chi_squared += delta * delta / expected;
    }
    out.p_value =
        regularized_gamma_q(out.degrees_of_freedom / 2.0, out.chi_squared / 2.0);
    return out;
}

double exposure_needed_for_zero_events(double target_rate, double confidence) {
    if (target_rate <= 0.0) {
        throw std::invalid_argument("exposure_needed_for_zero_events: target_rate > 0");
    }
    if (confidence <= 0.0 || confidence >= 1.0) {
        throw std::invalid_argument("exposure_needed_for_zero_events: confidence in (0,1)");
    }
    // Upper bound with k=0 is -ln(1-confidence)/T; solve for T.
    return -std::log1p(-confidence) / target_rate;
}

}  // namespace qrn::stats
