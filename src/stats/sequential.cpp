#include "stats/sequential.h"

#include <cmath>
#include <stdexcept>
#include <string_view>

namespace qrn::stats {

std::string_view to_string(SprtDecision decision) noexcept {
    switch (decision) {
        case SprtDecision::Continue: return "CONTINUE";
        case SprtDecision::AcceptH0: return "ACCEPT-H0";
        case SprtDecision::RejectH0: return "REJECT-H0";
    }
    return "?";
}

PoissonSprt::PoissonSprt(double lambda0, double lambda1, double alpha, double beta)
    : lambda0_(lambda0), lambda1_(lambda1) {
    if (!(lambda0 > 0.0) || !(lambda1 > lambda0)) {
        throw std::invalid_argument("PoissonSprt: requires 0 < lambda0 < lambda1");
    }
    if (!(alpha > 0.0) || alpha >= 0.5 || !(beta > 0.0) || beta >= 0.5) {
        throw std::invalid_argument("PoissonSprt: alpha, beta in (0, 0.5)");
    }
    upper_ = std::log((1.0 - beta) / alpha);
    lower_ = std::log(beta / (1.0 - alpha));
}

void PoissonSprt::observe(std::uint64_t events, double hours) {
    if (!(hours >= 0.0) || !std::isfinite(hours)) {
        throw std::invalid_argument("PoissonSprt::observe: hours must be finite >= 0");
    }
    events_ += events;
    hours_ += hours;
    llr_ += static_cast<double>(events) * std::log(lambda1_ / lambda0_) -
            (lambda1_ - lambda0_) * hours;
}

SprtDecision PoissonSprt::decision() const noexcept {
    if (llr_ >= upper_) return SprtDecision::RejectH0;
    if (llr_ <= lower_) return SprtDecision::AcceptH0;
    return SprtDecision::Continue;
}

}  // namespace qrn::stats
