// Strong types for incident frequencies and operational exposure.
//
// The quantitative risk norm is "essentially a budget of acceptable
// frequencies of incidents" (paper, Sec. I). Everything in the toolkit that
// carries an events-per-operational-hour meaning uses the Frequency type
// below instead of a bare double, so budgets, observed rates and limits
// cannot be accidentally mixed with probabilities or counts.
#pragma once

#include <compare>
#include <string>

namespace qrn {

/// Operational exposure expressed in hours of ADS operation.
class ExposureHours {
public:
    constexpr ExposureHours() noexcept = default;

    /// Requires a finite, non-negative number of hours (checked).
    explicit ExposureHours(double hours);

    [[nodiscard]] constexpr double hours() const noexcept { return hours_; }

    friend constexpr auto operator<=>(ExposureHours, ExposureHours) noexcept = default;
    ExposureHours& operator+=(ExposureHours other) noexcept;

private:
    double hours_ = 0.0;
};

/// An event frequency in events per operational hour. Non-negative.
class Frequency {
public:
    constexpr Frequency() noexcept = default;

    /// Named constructor: events per operational hour. Requires a finite,
    /// non-negative value (checked).
    [[nodiscard]] static Frequency per_hour(double value);

    /// Named constructor: k events over an exposure. Requires exposure > 0.
    [[nodiscard]] static Frequency of_count(double events, ExposureHours exposure);

    [[nodiscard]] constexpr double per_hour_value() const noexcept { return value_; }

    [[nodiscard]] constexpr bool is_zero() const noexcept { return value_ == 0.0; }

    friend constexpr auto operator<=>(Frequency, Frequency) noexcept = default;

    // Frequencies form a cone: addition and non-negative scaling are closed.
    Frequency& operator+=(Frequency other) noexcept;
    /// Scaling by a contribution fraction. Requires factor >= 0 (checked).
    friend Frequency operator*(Frequency f, double factor);

    /// Ratio of two frequencies; requires a non-zero denominator (checked).
    [[nodiscard]] double ratio(Frequency denominator) const;

    /// Human-readable form, e.g. "1.0e-07 /h".
    [[nodiscard]] std::string to_string() const;

private:
    constexpr explicit Frequency(double value) noexcept : value_(value) {}
    double value_ = 0.0;
};

}  // namespace qrn
