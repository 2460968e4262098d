// Campaign execution with content-addressed caching and resume.
//
// Every fleet of a campaign is a pure function of its cache key, so a
// campaign run against a store becomes: for each fleet, either reuse the
// sealed shard whose key matches, or simulate the fleet and seal a new
// shard. A killed run leaves sealed shards for the fleets it finished (a
// seal is an atomic rename, and the directory is the store's index);
// rerunning the same command resumes exactly there and produces
// byte-identical shards - and therefore byte-identical downstream
// statistics - to an uninterrupted run.
//
// A shard is only ever reused after a full integrity re-scan
// (check_fleet_shard, the one check the distributed coordinator and its
// workers use too): a corrupted, truncated or key-mismatched shard is
// counted, reported through qrn_obs and silently *re-simulated*, never
// trusted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/campaign.h"
#include "store/store.h"

namespace qrn::store {

/// What the cache did for one campaign run.
struct StoreCampaignStats {
    std::size_t fleets_total = 0;
    std::size_t fleets_simulated = 0;  ///< Cache misses (simulated + sealed).
    std::size_t fleets_reused = 0;     ///< Verified cache hits.
    std::size_t shards_invalid = 0;    ///< Present but failed verification.

    /// One entry per fleet, in fleet order; every entry's shard is sealed
    /// and verified by the time this is returned.
    std::vector<ShardEntry> entries;
};

/// Where one fleet's shard stands under the key it should be sealed with.
enum class ShardState {
    Sealed,   ///< Verifies clean as exactly this fleet under this key.
    Absent,   ///< No such file, or the file holds another fleet or key.
    Corrupt,  ///< The file exists but fails its integrity scan.
};

/// What check_fleet_shard found for one fleet.
struct FleetShard {
    ShardState state = ShardState::Absent;
    ShardEntry entry;  ///< The shard, with its footer's records and exposure, when Sealed.
};

/// The one sealed-shard check: does fleet `fleet_index`'s shard in `dir`
/// (Store::shard_filename(fleet_index, key)) pass a full integrity scan as
/// exactly that fleet under `key`? Never throws StoreError; a missing file
/// is Absent, damaged bytes are Corrupt.
[[nodiscard]] FleetShard check_fleet_shard(const std::string& dir,
                                           std::uint64_t fleet_index,
                                           std::uint64_t key);

/// Runs the campaign against the store. Fleet i's key is
/// fleet_cache_key(config.base, config.hours_per_fleet, i, inputs_digest);
/// fleets run (or verify) in parallel per config.jobs, and the outcome is
/// independent of jobs and of interruption history; afterwards the store
/// holds one shard per fleet. Throws StoreError(Io) when shards cannot be
/// written and std::invalid_argument on a config the plain run_campaign
/// would also reject.
[[nodiscard]] StoreCampaignStats run_campaign_with_store(
    const sim::CampaignConfig& config, Store& store, std::string_view inputs_digest);

/// Simulates one fleet of the campaign and seals its shard into `dir`
/// under `key`, without recording it in any Store: the single code path
/// behind both the local cache-miss branch above and the distributed
/// scheduler's workers, so a shard's bytes depend only on the campaign
/// inputs - never on which process produced it. `key` must be the fleet's
/// cache key (the caller already holds it: from its CampaignKeys, or from
/// a plan whose keys verify_plan_keys checked). Returns the entry
/// describing the sealed shard (the caller decides whether and where to
/// record it).
[[nodiscard]] ShardEntry simulate_fleet_shard(const sim::CampaignConfig& config,
                                              const std::string& dir,
                                              std::size_t fleet_index,
                                              std::uint64_t key);

}  // namespace qrn::store
