// Unit tests for the from-scratch special functions against independently
// known reference values (scipy cross-checks) and their defining identities.
#include "stats/special_functions.h"

#include <cmath>
#include <stdexcept>

#include <gtest/gtest.h>

namespace qrn::stats {
namespace {

TEST(RegularizedGamma, KnownValues) {
    // Q(1, x) = exp(-x).
    EXPECT_NEAR(regularized_gamma_q(1.0, 1.0), std::exp(-1.0), 1e-12);
    EXPECT_NEAR(regularized_gamma_q(1.0, 2.5), std::exp(-2.5), 1e-12);
    // Q(0.5, x) = erfc(sqrt(x)).
    EXPECT_NEAR(regularized_gamma_q(0.5, 1.0), std::erfc(1.0), 1e-10);
    EXPECT_NEAR(regularized_gamma_q(0.5, 4.0), std::erfc(2.0), 1e-10);
    // scipy.special.gammaincc(3, 2) = 5 exp(-2) = 0.6766764161830635.
    EXPECT_NEAR(regularized_gamma_q(3.0, 2.0), 0.6766764161830635, 1e-12);
    // Q(10, 15) = exp(-15) * sum_{k=0}^{9} 15^k/k! (Poisson identity;
    // value computed independently from that sum). Exercises the
    // continued-fraction branch (x >= a + 1).
    double poisson_sum = 0.0, term = 1.0;
    for (int k = 1; k <= 10; ++k) {
        poisson_sum += term;
        term *= 15.0 / k;
    }
    EXPECT_NEAR(regularized_gamma_q(10.0, 15.0), std::exp(-15.0) * poisson_sum, 1e-11);
}

TEST(RegularizedGamma, BoundaryAndDomain) {
    EXPECT_DOUBLE_EQ(regularized_gamma_q(2.0, 0.0), 1.0);
    EXPECT_THROW(regularized_gamma_q(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW(regularized_gamma_q(1.0, -0.1), std::invalid_argument);
    EXPECT_THROW(regularized_gamma_q(-1.0, 1.0), std::invalid_argument);
}

TEST(RegularizedGamma, MonotoneInX) {
    double prev = 2.0;
    for (double x = 0.0; x <= 20.0; x += 0.25) {
        const double q = regularized_gamma_q(4.0, x);
        EXPECT_LE(q, prev);
        prev = q;
    }
}

TEST(InverseRegularizedGamma, RoundTrip) {
    for (double a : {0.5, 1.0, 3.0, 12.0}) {
        for (double q : {0.01, 0.25, 0.5, 0.9, 0.999}) {
            const double x = inverse_regularized_gamma_q(a, q);
            EXPECT_NEAR(regularized_gamma_q(a, x), q, 1e-9) << "a=" << a << " q=" << q;
        }
    }
}

TEST(InverseRegularizedGamma, Domain) {
    EXPECT_DOUBLE_EQ(inverse_regularized_gamma_q(2.0, 1.0), 0.0);
    EXPECT_THROW(inverse_regularized_gamma_q(0.0, 0.5), std::invalid_argument);
    EXPECT_THROW(inverse_regularized_gamma_q(2.0, 0.0), std::invalid_argument);
    EXPECT_THROW(inverse_regularized_gamma_q(2.0, 1.5), std::invalid_argument);
}

TEST(RegularizedBeta, KnownValues) {
    // I_x(1, 1) = x.
    EXPECT_NEAR(regularized_beta(1.0, 1.0, 0.37), 0.37, 1e-12);
    // I_x(2, 2) = x^2 (3 - 2x).
    EXPECT_NEAR(regularized_beta(2.0, 2.0, 0.5), 0.5, 1e-12);
    EXPECT_NEAR(regularized_beta(2.0, 2.0, 0.25), 0.25 * 0.25 * (3.0 - 0.5), 1e-12);
    // scipy.special.betainc(5, 3, 0.6) = 0.419904.
    EXPECT_NEAR(regularized_beta(5.0, 3.0, 0.6), 0.419904, 1e-10);
}

TEST(RegularizedBeta, SymmetryIdentity) {
    for (double a : {0.5, 2.0, 7.5}) {
        for (double b : {0.5, 3.0, 9.0}) {
            for (double x : {0.1, 0.42, 0.9}) {
                EXPECT_NEAR(regularized_beta(a, b, x),
                            1.0 - regularized_beta(b, a, 1.0 - x), 1e-11)
                    << "a=" << a << " b=" << b << " x=" << x;
            }
        }
    }
}

TEST(RegularizedBeta, BoundaryAndDomain) {
    EXPECT_DOUBLE_EQ(regularized_beta(2.0, 3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(regularized_beta(2.0, 3.0, 1.0), 1.0);
    EXPECT_THROW(regularized_beta(0.0, 1.0, 0.5), std::invalid_argument);
    EXPECT_THROW(regularized_beta(1.0, 1.0, -0.1), std::invalid_argument);
    EXPECT_THROW(regularized_beta(1.0, 1.0, 1.1), std::invalid_argument);
}

TEST(InverseRegularizedBeta, RoundTrip) {
    for (double a : {0.5, 2.0, 10.0}) {
        for (double b : {1.0, 4.0}) {
            for (double p : {0.05, 0.5, 0.95}) {
                const double x = inverse_regularized_beta(a, b, p);
                EXPECT_NEAR(regularized_beta(a, b, x), p, 1e-9);
            }
        }
    }
}

// Known values are stated as lower-tail quantiles chi2.ppf(p, k) and
// reached through the upper-tail entry point at q = 1 - p.
TEST(ChiSquaredQuantile, KnownValues) {
    EXPECT_NEAR(chi_squared_quantile_upper(1.0 - 0.95, 1.0), 3.841458820694124, 1e-8);
    EXPECT_NEAR(chi_squared_quantile_upper(1.0 - 0.95, 2.0), 5.991464547107979, 1e-8);
    EXPECT_NEAR(chi_squared_quantile_upper(1.0 - 0.975, 10.0), 20.483177350807546, 1e-7);
    // chi2.ppf(0.025, 10) ~ 3.247 (standard table value); the round trip
    // through the forward tail function pins the exact digits.
    const double x = chi_squared_quantile_upper(1.0 - 0.025, 10.0);
    EXPECT_NEAR(x, 3.247, 5e-4);
    EXPECT_NEAR(regularized_gamma_q(5.0, x / 2.0), 1.0 - 0.025, 1e-10);
}

TEST(ChiSquaredQuantile, Domain) {
    EXPECT_THROW(chi_squared_quantile_upper(0.5, 0.0), std::invalid_argument);
    EXPECT_THROW(chi_squared_quantile_upper(0.5, -2.0), std::invalid_argument);
    EXPECT_THROW(chi_squared_quantile_upper(0.0, 2.0), std::invalid_argument);
}

// Extreme-tail pins against mpmath (50 significant digits, rounded to
// double). This is the regime C3-scale Garwood bounds live in: tail masses
// down to 1e-9 and degrees of freedom up to 1e6. The old fixed-500-iteration
// expansions silently truncated here (e.g. the median at k = 1e6 came back
// ~1000002 instead of 999999.33).
TEST(ChiSquaredQuantile, ExtremeTailReferenceValues) {
    struct Case {
        double p;       // lower-tail mass
        double k;       // degrees of freedom
        double expect;  // mpmath reference
    };
    const Case lower_cases[] = {
        {0.5, 2.0, 1.3862943611198906},
        {0.025, 2.0, 0.050635615968579751},
        {0.5, 10.0, 9.3418177655919674},
        {0.025, 10.0, 3.2469727802368411},
        {0.5, 100.0, 99.334129235988456},
        {0.025, 100.0, 74.221927474923726},
        {0.5, 1000.0, 999.33341240338097},
        {0.025, 1000.0, 914.25715379925893},
        {0.5, 100000.0, 99999.333334123463},
        {0.025, 100000.0, 99125.373300647352},
        {0.5, 1000000.0, 999999.33333341235},
        {0.025, 1000000.0, 997230.0871432901},
    };
    for (const auto& c : lower_cases) {
        EXPECT_NEAR(chi_squared_quantile_upper(1.0 - c.p, c.k), c.expect, 1e-12 * c.expect)
            << "p=" << c.p << " k=" << c.k;
    }
    // Upper-tail entry point: q is the small mass, so the references are
    // the 1 - q quantiles computed at full precision in mpmath.
    const Case upper_cases[] = {
        {1e-9, 2.0, 41.446531673892822},
        {1e-9, 10.0, 62.945457420558571},
        {1e-9, 100.0, 209.317598706542},
        {1e-9, 1000.0, 1291.9578662356022},
        {1e-9, 100000.0, 102705.65960579477},
        {1e-9, 1000000.0, 1008505.5094507971},
        {0.025, 2.0, 7.3777589082278726},
        {0.025, 10.0, 20.483177350807397},
        {0.025, 100.0, 129.56119718583659},
        {0.025, 1000.0, 1089.5309127749135},
        {0.025, 100000.0, 100878.41530566557},
        {0.025, 1000000.0, 1002773.701467926},
    };
    for (const auto& c : upper_cases) {
        EXPECT_NEAR(chi_squared_quantile_upper(c.p, c.k), c.expect, 1e-12 * c.expect)
            << "q=" << c.p << " k=" << c.k;
    }
}

// The inverse must localise the quantile to ~1e-11 RELATIVE accuracy in x
// even where the tail mass is astronomically small - that is what makes
// Garwood bounds at 1 - 1e-9 confidence trustworthy rather than silently
// wrong. (A round-trip check in p would conflate this with the forward
// functions' conditioning: near a = 5e5 the tail mass responds to a 1e-11
// shift in x with a ~1e-7 relative change, so bracketing x is the sharper
// and better-posed assertion.)
TEST(InverseRegularizedGamma, ExtremeTailBracketsTrueQuantile) {
    constexpr double kRelTol = 2e-11;
    for (double a : {1.0, 5.0, 50.0, 500.0, 5e4, 5e5}) {
        for (double p : {1e-12, 1e-9, 1e-4, 0.025, 0.5}) {
            const double xq = inverse_regularized_gamma_q(a, p);
            EXPECT_GT(regularized_gamma_q(a, xq * (1.0 - kRelTol)), p)
                << "a=" << a << " q=" << p;
            EXPECT_LT(regularized_gamma_q(a, xq * (1.0 + kRelTol)), p)
                << "a=" << a << " q=" << p;
        }
    }
}

TEST(NormalCdf, KnownValues) {
    EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
    EXPECT_NEAR(normal_cdf(1.959963984540054), 0.975, 1e-12);
    EXPECT_NEAR(normal_cdf(-1.0), 0.15865525393145707, 1e-12);
}

TEST(NormalQuantile, RoundTripAndKnownValues) {
    EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
    EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-9);
    EXPECT_NEAR(normal_quantile(0.05), -1.6448536269514722, 1e-9);
    for (double p : {1e-6, 0.01, 0.3, 0.5, 0.77, 0.999, 1.0 - 1e-9}) {
        EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-9) << "p=" << p;
    }
    EXPECT_THROW(normal_quantile(0.0), std::invalid_argument);
    EXPECT_THROW(normal_quantile(1.0), std::invalid_argument);
}

}  // namespace
}  // namespace qrn::stats
