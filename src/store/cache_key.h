// Content-addressed cache keys for campaign shards.
//
// A shard is reusable exactly when the run that would produce it is the
// run that did produce it. The key is therefore a digest of everything the
// fleet's log is a pure function of: the full FleetConfig (every model
// parameter, as IEEE bit patterns - 0.1 and 0.1000000000000001 are
// different runs), the campaign's hours-per-fleet, the base seed, the
// fleet index, and an opaque caller-supplied inputs digest (the CLI folds
// in the incident-type catalog the evidence will be labelled against).
// A format-version salt leads the stream so a future layout change
// invalidates every old key instead of colliding with it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "sim/fleet.h"

namespace qrn::store {

/// Incremental FNV-1a (64-bit) over a canonical byte stream. Every field
/// is framed by its width, doubles travel as bit patterns, so two
/// different field sequences never alias byte-for-byte.
class KeyHasher {
public:
    void mix_bytes(std::string_view bytes) noexcept;
    void mix_u64(std::uint64_t value) noexcept;
    void mix_f64(double value) noexcept;
    void mix_bool(bool value) noexcept;
    /// Length-prefixed, so "ab"+"c" and "a"+"bc" differ.
    void mix_string(std::string_view text) noexcept;

    [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

private:
    std::uint64_t state_ = 14695981039346656037ULL;  ///< FNV offset basis.
};

/// The cache keys of one campaign's fleets, each in constant time. A
/// fleet's byte stream is a prefix shared by every fleet (salt, base
/// config, base seed, hours_per_fleet), the fleet index, and a tail shared
/// by every fleet (the inputs digest, length-prefixed). The constructor
/// hashes the prefix once and folds the tail once; fleet_key() copies the
/// prefix state, mixes the 8 index bytes and applies the folded tail.
///
/// Why the tail folds: one FNV-1a step s -> (s ^ b) * P changes only the
/// low byte with its xor, and the low byte of the product depends only on
/// the low byte of s. So folding a fixed n-byte tail into any state s,
/// split as s = h + r with r = s & 0xFF, gives h * P^n + fold(r)
/// (mod 2^64): the high bits are only ever multiplied. The constructor
/// folds all 256 low bytes, 8 side by side, a one-time 256 x (8 + |digest|)
/// steps (172544 for the 666-byte catalog digest), and keeps P^n and
/// fold(r); fleet_key() never loops over the digest.
///
/// Build one per campaign and ask it for every fleet; fleet_key() only
/// reads, so pool workers may share one instance.
class CampaignKeys {
public:
    CampaignKeys(const sim::FleetConfig& base, double hours_per_fleet,
                 std::string_view inputs_digest);

    [[nodiscard]] std::uint64_t fleet_key(std::size_t fleet_index) const noexcept;

private:
    KeyHasher prefix_;
    std::uint64_t tail_scale_ = 1;  ///< P^n for the n-byte tail.
    std::array<std::uint64_t, 256> tail_of_low_byte_{};  ///< fold(r), r < 256.
};

/// The cache key of fleet `fleet_index` of a campaign: digest of
/// (base config, hours_per_fleet, base seed, fleet index, inputs_digest),
/// hashed byte by byte. Pure in its arguments; independent of --jobs and
/// of scheduling. This is the key's definition, and CampaignKeys must
/// reproduce it for every fleet; CampaignKeys is the cheap way to key
/// many fleets of one campaign.
[[nodiscard]] std::uint64_t fleet_cache_key(const sim::FleetConfig& base,
                                            double hours_per_fleet,
                                            std::size_t fleet_index,
                                            std::string_view inputs_digest);

/// Fixed-width lowercase hex rendering (16 digits) used in manifests and
/// shard file names.
[[nodiscard]] std::string key_hex(std::uint64_t key);

/// Inverse of key_hex; throws StoreError(Inconsistent) on anything that is
/// not exactly 16 lowercase hex digits.
[[nodiscard]] std::uint64_t key_from_hex(std::string_view hex);

}  // namespace qrn::store
