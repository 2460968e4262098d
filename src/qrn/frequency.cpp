#include "qrn/frequency.h"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace qrn {

ExposureHours::ExposureHours(double hours) : hours_(hours) {
    if (!std::isfinite(hours) || hours < 0.0) {
        throw std::invalid_argument("ExposureHours: requires finite hours >= 0");
    }
}

ExposureHours& ExposureHours::operator+=(ExposureHours other) noexcept {
    hours_ += other.hours_;
    return *this;
}

Frequency Frequency::per_hour(double value) {
    if (!std::isfinite(value) || value < 0.0) {
        throw std::invalid_argument("Frequency: requires finite value >= 0 per hour");
    }
    return Frequency(value);
}

Frequency Frequency::of_count(double events, ExposureHours exposure) {
    if (!std::isfinite(events) || events < 0.0) {
        throw std::invalid_argument("Frequency::of_count: requires events >= 0");
    }
    if (exposure.hours() <= 0.0) {
        throw std::invalid_argument("Frequency::of_count: requires exposure > 0");
    }
    return Frequency(events / exposure.hours());
}

Frequency& Frequency::operator+=(Frequency other) noexcept {
    value_ += other.value_;
    return *this;
}

Frequency operator*(Frequency f, double factor) {
    if (!std::isfinite(factor) || factor < 0.0) {
        throw std::invalid_argument("Frequency scaling: requires finite factor >= 0");
    }
    return Frequency(f.value_ * factor);
}

double Frequency::ratio(Frequency denominator) const {
    if (denominator.value_ <= 0.0) {
        throw std::invalid_argument("Frequency::ratio: denominator must be > 0");
    }
    return value_ / denominator.value_;
}

std::string Frequency::to_string() const {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.1e /h", value_);
    return buf;
}

}  // namespace qrn
