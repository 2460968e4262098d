#include "stats/proportion.h"

#include <stdexcept>

#include "stats/special_functions.h"

namespace qrn::stats {

namespace {

void require_valid(std::uint64_t successes, std::uint64_t trials, double confidence) {
    if (trials == 0) throw std::invalid_argument("proportion: trials must be > 0");
    if (successes > trials) {
        throw std::invalid_argument("proportion: successes must be <= trials");
    }
    if (confidence <= 0.0 || confidence >= 1.0) {
        throw std::invalid_argument("proportion: confidence must be in (0, 1)");
    }
}

}  // namespace

ProportionInterval clopper_pearson_interval(std::uint64_t successes,
                                            std::uint64_t trials, double confidence) {
    require_valid(successes, trials, confidence);
    const double alpha = 1.0 - confidence;
    const double k = static_cast<double>(successes);
    const double n = static_cast<double>(trials);
    ProportionInterval out;
    out.point = k / n;
    out.confidence = confidence;
    out.lower = successes == 0
                    ? 0.0
                    : inverse_regularized_beta(k, n - k + 1.0, alpha / 2.0);
    out.upper = successes == trials
                    ? 1.0
                    : inverse_regularized_beta(k + 1.0, n - k, 1.0 - alpha / 2.0);
    return out;
}

}  // namespace qrn::stats
