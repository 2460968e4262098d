#include "store/cache_key.h"

#include <algorithm>
#include <bit>

#include "store/format.h"

namespace qrn::store {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Bumping this string is the one-line way to invalidate every cached
/// shard when the key schema or the simulation semantics change.
constexpr std::string_view kKeySalt = "qrn.store.key.v1";

}  // namespace

void KeyHasher::mix_bytes(std::string_view bytes) noexcept {
    for (const char c : bytes) {
        state_ ^= static_cast<unsigned char>(c);
        state_ *= kFnvPrime;
    }
}

void KeyHasher::mix_u64(std::uint64_t value) noexcept {
    for (int shift = 0; shift < 64; shift += 8) {
        state_ ^= (value >> shift) & 0xFFu;
        state_ *= kFnvPrime;
    }
}

void KeyHasher::mix_f64(double value) noexcept {
    mix_u64(std::bit_cast<std::uint64_t>(value));
}

void KeyHasher::mix_bool(bool value) noexcept { mix_u64(value ? 1 : 0); }

void KeyHasher::mix_string(std::string_view text) noexcept {
    mix_u64(text.size());
    mix_bytes(text);
}

namespace {

/// The bytes every fleet of a campaign opens with: salt, base config,
/// base seed, hours_per_fleet.
KeyHasher campaign_prefix(const sim::FleetConfig& base, double hours_per_fleet) {
    KeyHasher h;
    h.mix_string(kKeySalt);

    // Odd.
    h.mix_f64(base.odd.max_speed_limit_kmh);
    h.mix_bool(base.odd.allow_rain);
    h.mix_bool(base.odd.allow_snow);
    h.mix_bool(base.odd.allow_fog);
    h.mix_bool(base.odd.allow_night);
    h.mix_f64(base.odd.min_friction);
    h.mix_f64(base.odd.max_vru_density);

    // TacticalPolicy.
    h.mix_f64(base.policy.speed_factor);
    h.mix_f64(base.policy.vru_speed_adaptation);
    h.mix_f64(base.policy.following_time_gap_s);
    h.mix_f64(base.policy.comfort_decel_ms2);
    h.mix_f64(base.policy.emergency_decel_fraction);
    h.mix_f64(base.policy.response_latency_s);
    h.mix_f64(base.policy.anticipation_horizon_s);

    // PerceptionModel.
    h.mix_f64(base.perception.nominal_range_m);
    h.mix_f64(base.perception.vru_range_factor);
    h.mix_f64(base.perception.animal_range_factor);
    h.mix_f64(base.perception.rain_factor);
    h.mix_f64(base.perception.snow_factor);
    h.mix_f64(base.perception.fog_factor);
    h.mix_f64(base.perception.night_factor);
    h.mix_f64(base.perception.dusk_factor);
    h.mix_f64(base.perception.range_sigma_log);
    h.mix_f64(base.perception.miss_probability);
    h.mix_f64(base.perception.blackout_probability);

    // EncounterRates.
    h.mix_f64(base.rates.vru_crossing);
    h.mix_f64(base.rates.lead_braking);
    h.mix_f64(base.rates.stationary_obstacle);
    h.mix_f64(base.rates.animal_crossing);
    h.mix_f64(base.rates.cut_in);
    h.mix_f64(base.rates.crossing_vehicle);
    h.mix_f64(base.rates.oncoming_drift);

    // DetectorConfig.
    h.mix_f64(base.detector.near_miss_max_distance_m);
    h.mix_f64(base.detector.near_miss_min_speed_kmh);

    // FaultInjection.
    h.mix_f64(base.faults.brake_degradation_probability);
    h.mix_f64(base.faults.degraded_decel_cap_ms2);
    h.mix_bool(base.faults.policy_aware);

    // SecondaryConflicts.
    h.mix_f64(base.secondary.follower_presence);
    h.mix_f64(base.secondary.rear_end_probability);
    h.mix_f64(base.secondary.induced_probability);

    // OddExitModel.
    h.mix_f64(base.odd_exit.exit_probability);
    h.mix_f64(base.odd_exit.detection_probability);
    h.mix_f64(base.odd_exit.mrm_incident_probability);

    h.mix_f64(base.environment_persistence);
    h.mix_u64(base.seed);

    h.mix_f64(hours_per_fleet);
    return h;
}

}  // namespace

CampaignKeys::CampaignKeys(const sim::FleetConfig& base, double hours_per_fleet,
                           std::string_view inputs_digest)
    : prefix_(campaign_prefix(base, hours_per_fleet)) {
    // The tail is mix_string(inputs_digest): 8 little-endian length bytes,
    // then the digest. Fold it into every possible low byte, 8 low bytes
    // at a time: their chains are independent, so 8 of them in registers
    // keep the multiplier busy while each waits on its own product.
    const std::uint64_t length = inputs_digest.size();
    for (std::size_t first = 0; first < tail_of_low_byte_.size(); first += 8) {
        std::array<std::uint64_t, 8> lanes{};
        for (std::size_t k = 0; k < lanes.size(); ++k) lanes[k] = first + k;
        const auto fold = [&lanes](std::uint64_t byte) {
            for (std::uint64_t& lane : lanes) lane = (lane ^ byte) * kFnvPrime;
        };
        for (int shift = 0; shift < 64; shift += 8) fold((length >> shift) & 0xFFu);
        for (const char c : inputs_digest) fold(static_cast<unsigned char>(c));
        std::copy(lanes.begin(), lanes.end(), tail_of_low_byte_.begin() + first);
    }
    for (std::size_t i = 0; i < 8 + inputs_digest.size(); ++i) tail_scale_ *= kFnvPrime;
}

std::uint64_t CampaignKeys::fleet_key(std::size_t fleet_index) const noexcept {
    KeyHasher h = prefix_;
    h.mix_u64(fleet_index);
    const std::uint64_t s = h.digest();
    return (s & ~std::uint64_t{0xFF}) * tail_scale_ + tail_of_low_byte_[s & 0xFFu];
}

std::uint64_t fleet_cache_key(const sim::FleetConfig& base, double hours_per_fleet,
                              std::size_t fleet_index,
                              std::string_view inputs_digest) {
    KeyHasher h = campaign_prefix(base, hours_per_fleet);
    h.mix_u64(fleet_index);
    h.mix_string(inputs_digest);
    return h.digest();
}

std::string key_hex(std::uint64_t key) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = kDigits[key & 0xFu];
        key >>= 4;
    }
    return out;
}

std::uint64_t key_from_hex(std::string_view hex) {
    if (hex.size() != 16) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         "cache key '" + std::string(hex) +
                             "' is not 16 hex digits");
    }
    std::uint64_t value = 0;
    for (const char c : hex) {
        value <<= 4;
        if (c >= '0' && c <= '9') {
            value |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            throw StoreError(StoreErrorKind::Inconsistent,
                             "cache key '" + std::string(hex) +
                                 "' contains a non-hex character");
        }
    }
    return value;
}

}  // namespace qrn::store
