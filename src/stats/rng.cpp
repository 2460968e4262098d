#include "stats/rng.h"

#include <cmath>

namespace qrn::stats {

namespace {

constexpr std::uint64_t kWeyl = 0x9E3779B97F4A7C15ULL;

/// The splitmix64 output function (finalizer) alone, without advancing.
constexpr std::uint64_t splitmix64_mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += kWeyl;
    return splitmix64_mix(x);
}

constexpr std::uint64_t rotl(std::uint64_t v, int k) noexcept {
    return (v << k) | (v >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& w : state_) w = splitmix64(s);
    // xoshiro must not start from the all-zero state.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
        state_[0] = 1;
    }
}

Rng::result_type Rng::operator()() noexcept {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double Rng::uniform() noexcept {
    // 53 random mantissa bits -> uniform in [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = max() - max() % span;
    std::uint64_t v = (*this)();
    while (v >= limit) v = (*this)();
    return lo + static_cast<std::int64_t>(v % span);
}

bool Rng::bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
}

double Rng::normal() noexcept {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * 3.141592653589793238462643383279502884 * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
}

double Rng::normal(double mean, double sigma) noexcept {
    return mean + sigma * normal();
}

double Rng::exponential(double lambda) noexcept {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -std::log(u) / lambda;
}

std::uint64_t Rng::poisson(double mean) noexcept {
    if (mean <= 0.0) return 0;
    if (mean < 30.0) {
        // Inversion by sequential search (Devroye).
        const double l = std::exp(-mean);
        std::uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > l);
        return k - 1;
    }
    // For large means, a normal approximation with continuity correction is
    // adequate for our workload modelling (relative error < 1% at mean>=30),
    // and keeps sampling deterministic and branch-simple.
    double draw = -1.0;
    while (draw < 0.0) draw = normal(mean, std::sqrt(mean)) + 0.5;
    return static_cast<std::uint64_t>(draw);
}

void Rng::fill_poisson(const double* means, std::uint64_t* out,
                       std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) out[i] = poisson(means[i]);
}

double Rng::lognormal(double mu_log, double sigma_log) noexcept {
    return std::exp(normal(mu_log, sigma_log));
}

std::uint64_t Rng::stream_seed(std::uint64_t seed, std::uint64_t stream_index) noexcept {
    // Whiten the seed first so nearby user seeds (42, 43, ...) map to
    // unrelated base points, then advance by `stream_index` Weyl steps and
    // finalize: exactly the splitmix64 sequence anchored at the whitened
    // seed, evaluated in closed form at position `stream_index`.
    const std::uint64_t base = splitmix64_mix(seed + kWeyl);
    return splitmix64_mix(base + (stream_index + 1) * kWeyl);
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_index) noexcept {
    return Rng(stream_seed(seed, stream_index));
}

}  // namespace qrn::stats
