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
#include <cstddef>
#include <cstdint>
#include <limits>

namespace qrn::stats {

/// Deterministic 64-bit PRNG (xoshiro256++), seedable from one uint64.
///
/// Satisfies std::uniform_random_bit_generator so it can also be handed to
/// <random> distributions when convenient, but the member samplers below are
/// preferred because their output is stable across standard libraries.
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
    result_type operator()() noexcept;

    /// Uniform double in [0, 1).
    double uniform() noexcept;

    /// Uniform double in [lo, hi). Requires lo <= hi.
    double uniform(double lo, double hi) noexcept;

    /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
    std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

    /// Bernoulli trial with success probability p (clamped to [0,1]).
    bool bernoulli(double p) noexcept;

    /// Standard normal via Box-Muller (stable across platforms).
    double normal() noexcept;

    /// Normal with the given mean and standard deviation (sigma >= 0).
    double normal(double mean, double sigma) noexcept;

    /// Exponential with the given rate lambda > 0 (mean 1/lambda).
    double exponential(double lambda) noexcept;

    /// Poisson count with the given mean >= 0. Uses inversion for small
    /// means and the PTRS transformed-rejection method for large ones.
    std::uint64_t poisson(double mean) noexcept;

    /// Batched draws for hot loops: out[i] = poisson(means[i]), drawn in
    /// index order. The fill consumes the generator exactly as n
    /// sequential poisson() calls would - out[i] is bit-identical to the
    /// i-th sequential draw (pinned by tests) - so call sites can batch
    /// without changing any downstream stream.
    void fill_poisson(const double* means, std::uint64_t* out,
                      std::size_t n) noexcept;

    /// Log-normal: exp(N(mu_log, sigma_log)).
    double lognormal(double mu_log, double sigma_log) noexcept;

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
    std::array<std::uint64_t, 4> state_{};
    double cached_normal_ = 0.0;
    bool has_cached_normal_ = false;
};

}  // namespace qrn::stats
