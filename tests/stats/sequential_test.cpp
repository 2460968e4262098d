// Wald SPRT: boundaries, decisions and the error-rate property.
#include "stats/sequential.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace qrn::stats {
namespace {

TEST(PoissonSprt, ConstructionDomain) {
    EXPECT_THROW(PoissonSprt(0.0, 1.0, 0.05, 0.05), std::invalid_argument);
    EXPECT_THROW(PoissonSprt(1.0, 1.0, 0.05, 0.05), std::invalid_argument);
    EXPECT_THROW(PoissonSprt(1.0, 2.0, 0.0, 0.05), std::invalid_argument);
    EXPECT_THROW(PoissonSprt(1.0, 2.0, 0.05, 0.6), std::invalid_argument);
}

TEST(PoissonSprt, StartsUndecided) {
    const PoissonSprt sprt(1e-3, 1e-2, 0.05, 0.05);
    EXPECT_EQ(sprt.decision(), SprtDecision::Continue);
    EXPECT_DOUBLE_EQ(sprt.log_likelihood_ratio(), 0.0);
}

TEST(PoissonSprt, EventFreeExposureAcceptsLowRate) {
    PoissonSprt sprt(1e-3, 1e-2, 0.05, 0.05);
    // LLR drifts down at (lambda1-lambda0) per event-free hour; the accept
    // boundary ln(0.05/0.95) ~ -2.94 is reached after ~327 h.
    sprt.observe(0, 300.0);
    EXPECT_EQ(sprt.decision(), SprtDecision::Continue);
    sprt.observe(0, 50.0);
    EXPECT_EQ(sprt.decision(), SprtDecision::AcceptH0);
}

TEST(PoissonSprt, EventBurstRejectsLowRate) {
    PoissonSprt sprt(1e-3, 1e-2, 0.05, 0.05);
    // Each event adds ln(10) ~ 2.30; the reject boundary ln(0.95/0.05) ~
    // 2.94 is crossed after two immediate events.
    sprt.observe(2, 1.0);
    EXPECT_EQ(sprt.decision(), SprtDecision::RejectH0);
}

TEST(PoissonSprt, ObserveValidation) {
    PoissonSprt sprt(1e-3, 1e-2, 0.05, 0.05);
    EXPECT_THROW(sprt.observe(0, -1.0), std::invalid_argument);
    sprt.observe(3, 100.0);
    EXPECT_EQ(sprt.events(), 3u);
    EXPECT_DOUBLE_EQ(sprt.hours(), 100.0);
}

TEST(PoissonSprt, ErrorRatesApproximatelyControlled) {
    // Simulate under H0 (true rate = lambda0): false rejections <~ alpha.
    const double lambda0 = 0.01, lambda1 = 0.05;
    Rng rng(0xDECADE);
    int rejections = 0, undecided = 0;
    const int trials = 1500;
    for (int t = 0; t < trials; ++t) {
        PoissonSprt sprt(lambda0, lambda1, 0.05, 0.05);
        for (int step = 0; step < 10000 && sprt.decision() == SprtDecision::Continue;
             ++step) {
            sprt.observe(rng.poisson(lambda0 * 10.0), 10.0);
        }
        if (sprt.decision() == SprtDecision::RejectH0) ++rejections;
        if (sprt.decision() == SprtDecision::Continue) ++undecided;
    }
    EXPECT_LT(rejections / static_cast<double>(trials), 0.07);
    EXPECT_EQ(undecided, 0);
}

TEST(PoissonSprt, DetectsElevatedRates) {
    // Under H1 the test must almost always reject.
    const double lambda0 = 0.01, lambda1 = 0.05;
    Rng rng(0xFACADE);
    int rejections = 0;
    const int trials = 800;
    for (int t = 0; t < trials; ++t) {
        PoissonSprt sprt(lambda0, lambda1, 0.05, 0.05);
        for (int step = 0; step < 10000 && sprt.decision() == SprtDecision::Continue;
             ++step) {
            sprt.observe(rng.poisson(lambda1 * 10.0), 10.0);
        }
        if (sprt.decision() == SprtDecision::RejectH0) ++rejections;
    }
    EXPECT_GT(rejections / static_cast<double>(trials), 0.93);
}

TEST(PoissonSprt, NamingOfDecisions) {
    EXPECT_EQ(to_string(SprtDecision::Continue), "CONTINUE");
    EXPECT_EQ(to_string(SprtDecision::AcceptH0), "ACCEPT-H0");
    EXPECT_EQ(to_string(SprtDecision::RejectH0), "REJECT-H0");
}

}  // namespace
}  // namespace qrn::stats
