// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components of the toolkit (the Monte-Carlo fleet simulator,
// the MECE sampling certificate, property-based tests) draw from this RNG so
// that every figure and table in the repository regenerates bit-identically
// from a seed. The generator is xoshiro256++ seeded through splitmix64,
// which gives full 256-bit state from a single 64-bit seed and passes the
// usual statistical batteries.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace qrn::stats {

/// Deterministic 64-bit PRNG (xoshiro256++), seedable from one uint64.
///
/// Satisfies std::uniform_random_bit_generator so it can also be handed to
/// <random> distributions when convenient, but the member samplers below are
/// preferred because their output is stable across standard libraries.
///
/// The samplers a simulated encounter draws from are defined inline below,
/// so the fleet kernel inlines them instead of calling into this library
/// per draw; seeding, stream derivation and the rarer samplers stay in
/// rng.cpp.
class Rng {
public:
    using result_type = std::uint64_t;

    /// Seeds the full 256-bit state from `seed` via splitmix64.
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept {
        return std::numeric_limits<result_type>::max();
    }

    /// Next raw 64-bit word.
    result_type operator()() noexcept {
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

    /// Uniform double in [0, 1).
    double uniform() noexcept {
        // 53 random mantissa bits -> uniform in [0, 1).
        return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi). Requires lo <= hi.
    double uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

    /// Bernoulli trial with success probability p (clamped to [0,1]).
    bool bernoulli(double p) noexcept {
        if (p <= 0.0) return false;
        if (p >= 1.0) return true;
        return uniform() < p;
    }

    /// Standard normal via Box-Muller (stable across platforms).
    double normal() noexcept {
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

    /// Normal with the given mean and standard deviation (sigma >= 0).
    double normal(double mean, double sigma) noexcept { return mean + sigma * normal(); }

    /// Exponential with the given rate lambda > 0 (mean 1/lambda).
    double exponential(double lambda) noexcept;

    /// Poisson count with the given mean >= 0: inversion by sequential
    /// search (Devroye) below a mean of 30, a normal approximation with
    /// continuity correction from 30 on.
    std::uint64_t poisson(double mean) noexcept {
        if (mean <= 0.0) return 0;
        if (mean < 30.0) {
            const double l = std::exp(-mean);
            std::uint64_t k = 0;
            double p = 1.0;
            do {
                ++k;
                p *= uniform();
            } while (p > l);
            return k - 1;
        }
        // For large means the normal approximation is adequate for our
        // workload modelling (relative error < 1% at mean >= 30), and keeps
        // sampling deterministic and branch-simple.
        double draw = -1.0;
        while (draw < 0.0) draw = normal(mean, std::sqrt(mean)) + 0.5;
        return static_cast<std::uint64_t>(draw);
    }

    /// Batched draws for hot loops: out[i] = poisson(means[i]), drawn in
    /// index order. The fill consumes the generator exactly as n
    /// sequential poisson() calls would - out[i] is bit-identical to the
    /// i-th sequential draw (pinned by tests) - so call sites can batch
    /// without changing any downstream stream.
    void fill_poisson(const double* means, std::uint64_t* out, std::size_t n) noexcept {
        for (std::size_t i = 0; i < n; ++i) out[i] = poisson(means[i]);
    }

    /// Log-normal: exp(N(mu_log, sigma_log)).
    double lognormal(double mu_log, double sigma_log) noexcept {
        return std::exp(normal(mu_log, sigma_log));
    }

    /// Seed of the `stream_index`-th independent substream of `seed`:
    /// the splitmix64 finalizer applied to the whitened seed advanced by
    /// `stream_index` Weyl steps. Pure in (seed, stream_index), so each
    /// fleet/sample/replicate can derive its own RNG regardless of which
    /// thread - or in what order - it runs.
    [[nodiscard]] static std::uint64_t stream_seed(
        std::uint64_t seed, std::uint64_t stream_index) noexcept;

    /// An Rng seeded from stream_seed(seed, stream_index).
    [[nodiscard]] static Rng stream(std::uint64_t seed,
                                    std::uint64_t stream_index) noexcept;

private:
    static constexpr std::uint64_t rotl(std::uint64_t v, int k) noexcept {
        return (v << k) | (v >> (64 - k));
    }

    std::array<std::uint64_t, 4> state_{};
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

}  // namespace qrn::stats
