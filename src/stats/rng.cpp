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

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
    std::uint64_t s = seed;
    for (auto& w : state_) w = splitmix64(s);
    // xoshiro must not start from the all-zero state.
    if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
        state_[0] = 1;
    }
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

double Rng::exponential(double lambda) noexcept {
    double u = uniform();
    while (u <= 0.0) u = uniform();
    return -std::log(u) / lambda;
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
