// Special functions needed for exact small-count interval estimation.
//
// The QRN verification path (Eq. 1 of the paper) must produce defensible
// upper confidence bounds on incident frequencies that are often estimated
// from very few observed events - exactly the regime where normal
// approximations fail. The exact Poisson (Garwood) and binomial
// (Clopper-Pearson) intervals require the regularized incomplete gamma and
// beta functions, which we implement here from scratch (series + continued
// fraction expansions, Lentz's algorithm).
#pragma once

namespace qrn::stats {

/// Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a).
/// Requires a > 0 and x >= 0. Accuracy ~1e-12 over the tested domain.
[[nodiscard]] double regularized_gamma_q(double a, double x);

/// Regularized incomplete beta I_x(a, b). Requires a, b > 0 and x in [0,1].
[[nodiscard]] double regularized_beta(double a, double b, double x);

/// Inverse of Q(a, .): x with Q(a, x) = q. Requires q in (0, 1]. The
/// smaller tail mass is solved for directly, so a Garwood bound at
/// confidence 1 - 1e-9 never loses precision to a 1 - q rounding. Full
/// relative accuracy in x for tail masses down to ~1e-300 and a up to ~1e8.
[[nodiscard]] double inverse_regularized_gamma_q(double a, double q);

/// Inverse of I_.(a, b): x with I_x(a, b) = p. Requires p in [0, 1].
[[nodiscard]] double inverse_regularized_beta(double a, double b, double p);

/// Upper-tail chi-squared quantile with k degrees of freedom: x with
/// P(X > x) = q.
[[nodiscard]] double chi_squared_quantile_upper(double q, double k);

/// Standard normal CDF Phi(x).
[[nodiscard]] double normal_cdf(double x);

/// Standard normal quantile Phi^{-1}(p), p in (0, 1). Acklam's algorithm
/// refined with one Halley step; absolute error < 1e-9.
[[nodiscard]] double normal_quantile(double p);

}  // namespace qrn::stats
