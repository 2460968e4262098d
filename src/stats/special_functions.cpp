#include "stats/special_functions.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace qrn::stats {

namespace {

constexpr double kEpsilon = 1e-15;
constexpr double kTiny = 1e-300;

/// Iteration budget for the gamma series / continued fractions. Both
/// expansions converge geometrically far from x ~ a but need O(sqrt(a))
/// terms in the transition region around the mean - exactly where the
/// quantile search evaluates them for large degrees of freedom. A fixed
/// budget (the old 500) silently truncated there: the series returned a
/// too-small P(a, x) for a ~ 5e5 and Garwood bounds at C3 scale inherited
/// the error. The budget below is generous (iterations are a few flops
/// each) and exhaustion now throws instead of returning a wrong value.
int gamma_iteration_budget(double a) {
    return 1000 + static_cast<int>(20.0 * std::sqrt(std::max(a, 1.0)));
}

[[noreturn]] void throw_no_convergence(const char* what) {
    throw std::runtime_error(std::string(what) +
                             ": expansion did not converge within its "
                             "iteration budget");
}

/// Series expansion for P(a, x), effective for x < a + 1. Full *relative*
/// accuracy: the result is sum * exp(log prefactor), so tail values of
/// 1e-300 still carry ~15 significant digits.
double gamma_p_series(double a, double x) {
    const int budget = gamma_iteration_budget(a);
    double term = 1.0 / a;
    double sum = term;
    double ap = a;
    for (int i = 0; i < budget; ++i) {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if (std::fabs(term) < std::fabs(sum) * kEpsilon) {
            return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
        }
    }
    throw_no_convergence("gamma_p_series");
}

/// Continued fraction for Q(a, x) (modified Lentz), effective for x >= a + 1.
double gamma_q_continued_fraction(double a, double x) {
    const int budget = gamma_iteration_budget(a);
    double b = x + 1.0 - a;
    double c = 1.0 / kTiny;
    double d = 1.0 / b;
    double h = d;
    for (int i = 1; i <= budget; ++i) {
        const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
        b += 2.0;
        d = an * d + b;
        if (std::fabs(d) < kTiny) d = kTiny;
        c = b + an / c;
        if (std::fabs(c) < kTiny) c = kTiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::fabs(delta - 1.0) < kEpsilon) {
            return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
        }
    }
    throw_no_convergence("gamma_q_continued_fraction");
}

/// Continued fraction for the incomplete beta (modified Lentz). The
/// transition region needs O(sqrt(max(a, b))) terms, same story as the
/// gamma expansions above.
double beta_continued_fraction(double a, double b, double x) {
    const int budget = gamma_iteration_budget(std::max(a, b));
    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < kTiny) d = kTiny;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= budget; ++m) {
        const double dm = static_cast<double>(m);
        const double m2 = 2.0 * dm;
        double aa = dm * (b - dm) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kTiny) d = kTiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < kTiny) c = kTiny;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + dm) * (qab + dm) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < kTiny) d = kTiny;
        c = 1.0 + aa / c;
        if (std::fabs(c) < kTiny) c = kTiny;
        d = 1.0 / d;
        const double delta = d * c;
        h *= delta;
        if (std::fabs(delta - 1.0) < kEpsilon) return h;
    }
    throw_no_convergence("beta_continued_fraction");
}

/// Monotone bisection fallback used by the inverse beta: finds x in
/// [lo, hi] with f(x) ~= target, assuming f is nondecreasing.
template <typename F>
double bisect(F f, double lo, double hi, double target) {
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (f(mid) < target) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

/// Log of the gamma density numerator: (a-1) ln x - x - ln Gamma(a);
/// d/dx P(a, x) = exp(log_gamma_pdf).
double log_gamma_pdf(double a, double x) {
    return (a - 1.0) * std::log(x) - x - std::lgamma(a);
}

/// Solves P(a, x) = p against whichever tail is numerically trustworthy:
/// the caller passes the SMALL tail mass directly (`tail` in (0, 0.5],
/// `lower_tail` says which side it is), so an upper bound at confidence
/// 1 - 1e-9 never squeezes its target through the 1 - q cancellation.
///
/// Method: Wilson-Hilferty starting point, then Newton on the log of the
/// tail function (log P or log Q), safeguarded by a hard bracket that
/// every evaluation tightens; a step that escapes the bracket becomes a
/// bisection step. Both tails are computed with full relative accuracy
/// (series / continued fraction above), so the iteration converges to
/// ~1e-14 relative in x even for tail masses of 1e-300.
double inverse_gamma_tail(double a, double tail, bool lower_tail) {
    // Wilson-Hilferty: the cube-root transform of a gamma variate is
    // nearly normal. z is the standard-normal quantile of the target's
    // lower-tail mass.
    const double z =
        lower_tail ? normal_quantile(tail) : -normal_quantile(tail);
    const double wh = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * std::sqrt(a));
    double x = a * wh * wh * wh;
    if (!(x > 0.0) || !std::isfinite(x)) {
        if (lower_tail) {
            // Small-x asymptote: P(a, x) ~ x^a / Gamma(a+1).
            x = std::exp((std::log(tail) + std::lgamma(a + 1.0)) / a);
        } else {
            // Large-x asymptote: Q(a, x) ~ x^(a-1) e^(-x) / Gamma(a).
            x = -std::log(tail) + std::lgamma(a);
            x = std::max(x, a + 1.0);
        }
    }
    double lo = 0.0;
    double hi = std::numeric_limits<double>::infinity();
    const double log_target = std::log(tail);
    for (int i = 0; i < 128; ++i) {
        // Evaluate the small side's tail at x with relative accuracy.
        const bool use_series = x < a + 1.0;
        const double p_small = use_series ? gamma_p_series(a, x)
                                          : gamma_q_continued_fraction(a, x);
        // Convert to the target's side. When the evaluation crossed over
        // (e.g. solving a left-tail target but x is right of the mode),
        // fall back to 1 - other side: absolute accuracy ~1e-16 is plenty
        // there because the target is >= ~0.3 whenever that happens.
        const double f = (use_series == lower_tail) ? p_small : 1.0 - p_small;
        if (f < tail) {
            if (lower_tail) {
                lo = std::max(lo, x);
            } else {
                hi = std::min(hi, x);
            }
        } else {
            if (lower_tail) {
                hi = std::min(hi, x);
            } else {
                lo = std::max(lo, x);
            }
        }
        if (f == tail) return x;
        // Newton step on log(tail function). d/dx log P = pdf / P,
        // d/dx log Q = -pdf / Q.
        const double log_f = std::log(f);
        const double log_pdf = log_gamma_pdf(a, x);
        // step = (log f - log target) * f / pdf, with the sign of the
        // tail's derivative folded in.
        double step = (log_f - log_target) * std::exp(log_f - log_pdf);
        if (!lower_tail) step = -step;
        double next = x - step;
        if (!(next > lo) || !(next < hi) || !std::isfinite(next)) {
            next = std::isfinite(hi) ? 0.5 * (lo + hi)
                                     : std::max(2.0 * x, x + 1.0);
        }
        if (std::fabs(next - x) <= 1e-14 * std::fabs(x)) return next;
        x = next;
    }
    return x;  // bracket is by now a few ulps wide
}

}  // namespace

double regularized_gamma_q(double a, double x) {
    if (a <= 0.0) throw std::invalid_argument("regularized_gamma_q: a must be > 0");
    if (x < 0.0) throw std::invalid_argument("regularized_gamma_q: x must be >= 0");
    if (x == 0.0) return 1.0;
    if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
    return gamma_q_continued_fraction(a, x);
}

double regularized_beta(double a, double b, double x) {
    if (a <= 0.0 || b <= 0.0) {
        throw std::invalid_argument("regularized_beta: a and b must be > 0");
    }
    if (x < 0.0 || x > 1.0) {
        throw std::invalid_argument("regularized_beta: x must be in [0, 1]");
    }
    if (x == 0.0) return 0.0;
    if (x == 1.0) return 1.0;
    const double ln_front = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                            a * std::log(x) + b * std::log1p(-x);
    const double front = std::exp(ln_front);
    // The continued fraction converges fast for x < (a+1)/(a+b+2); use the
    // symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
    if (x < (a + 1.0) / (a + b + 2.0)) {
        return front * beta_continued_fraction(a, b, x) / a;
    }
    return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

double inverse_regularized_gamma_q(double a, double q) {
    if (a <= 0.0) throw std::invalid_argument("inverse_regularized_gamma_q: a must be > 0");
    if (q <= 0.0 || q > 1.0) {
        throw std::invalid_argument("inverse_regularized_gamma_q: q must be in (0, 1]");
    }
    if (q == 1.0) return 0.0;
    if (q <= 0.5) return inverse_gamma_tail(a, q, /*lower_tail=*/false);
    return inverse_gamma_tail(a, 1.0 - q, /*lower_tail=*/true);
}

double inverse_regularized_beta(double a, double b, double p) {
    if (a <= 0.0 || b <= 0.0) {
        throw std::invalid_argument("inverse_regularized_beta: a and b must be > 0");
    }
    if (p < 0.0 || p > 1.0) {
        throw std::invalid_argument("inverse_regularized_beta: p must be in [0, 1]");
    }
    if (p == 0.0) return 0.0;
    if (p == 1.0) return 1.0;
    return bisect([a, b](double x) { return regularized_beta(a, b, x); }, 0.0, 1.0, p);
}

double chi_squared_quantile_upper(double q, double k) {
    if (k <= 0.0) {
        throw std::invalid_argument("chi_squared_quantile_upper: k must be > 0");
    }
    return 2.0 * inverse_regularized_gamma_q(0.5 * k, q);
}

double normal_cdf(double x) {
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double normal_quantile(double p) {
    if (p <= 0.0 || p >= 1.0) {
        throw std::invalid_argument("normal_quantile: p must be in (0, 1)");
    }
    // Acklam's rational approximation.
    static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                   -2.759285104469687e+02, 1.383577518672690e+02,
                                   -3.066479806614716e+01, 2.506628277459239e+00};
    static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                   -1.556989798598866e+02, 6.680131188771972e+01,
                                   -1.328068155288572e+01};
    static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                   -2.400758277161838e+00, -2.549732539343734e+00,
                                   4.374664141464968e+00,  2.938163982698783e+00};
    static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                   2.445134137142996e+00, 3.754408661907416e+00};
    constexpr double p_low = 0.02425;
    double x;
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    } else if (p <= 1.0 - p_low) {
        const double q = p - 0.5;
        const double r = q * q;
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q /
            (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
    } else {
        const double q = std::sqrt(-2.0 * std::log1p(-p));
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    // One Halley refinement step against the exact CDF.
    const double e = normal_cdf(x) - p;
    const double u = e * std::sqrt(2.0 * 3.141592653589793) * std::exp(0.5 * x * x);
    x = x - u / (1.0 + 0.5 * x * u);
    return x;
}

}  // namespace qrn::stats
