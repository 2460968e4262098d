#include "store/campaign_store.h"

#include <atomic>
#include <stdexcept>
#include <string>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "stats/rng.h"
#include "store/cache_key.h"
#include "store/format.h"
#include "store/shard.h"

namespace qrn::store {

namespace {

/// Declares every store metric this path may touch, so a --metrics
/// manifest has the same structure whether the cache hit, missed or was
/// partially invalid (and for every --jobs value).
void declare_metrics() {
    if (!obs::enabled()) return;
    obs::add_counter("store.cache_hits", 0);
    obs::add_counter("store.cache_misses", 0);
    obs::add_counter("store.shards_reused", 0);
    obs::add_counter("store.shards_invalid", 0);
    obs::add_counter("store.shards_written", 0);
    obs::add_counter("store.records_written", 0);
    obs::add_counter("store.bytes_written", 0);
    obs::add_counter("store.shards_read", 0);
    obs::add_counter("store.records_read", 0);
    obs::add_counter("store.bytes_read", 0);
    obs::add_counter("store.checksum_failures", 0);
    obs::declare_timer("store.shard_write_ns");
    obs::declare_timer("store.shard_read_ns");
}

}  // namespace

FleetShard check_fleet_shard(const std::string& dir, std::uint64_t fleet_index,
                             std::uint64_t key) {
    FleetShard out;
    out.entry.fleet_index = fleet_index;
    out.entry.file = Store::shard_filename(fleet_index, key);
    out.entry.cache_key = key;
    try {
        const ShardInfo info = verify_shard(dir + "/" + out.entry.file);
        if (info.cache_key == key && info.fleet_index == fleet_index) {
            out.state = ShardState::Sealed;
            out.entry.records = info.records;
            out.entry.exposure_hours = info.totals.exposure_hours;
        }
    } catch (const StoreError& error) {
        // A missing file (Io) is a plain miss; anything else is a shard
        // that exists but cannot be trusted.
        if (error.is_corruption()) out.state = ShardState::Corrupt;
    }
    return out;
}

ShardEntry simulate_fleet_shard(const sim::CampaignConfig& config,
                                const std::string& dir,
                                std::size_t fleet_index, std::uint64_t key) {
    sim::FleetConfig fleet = config.base;
    fleet.seed = stats::Rng::stream_seed(config.base.seed, fleet_index);
    const sim::IncidentLog log =
        sim::FleetSimulator(fleet).run(config.hours_per_fleet);

    ShardEntry entry;
    entry.fleet_index = fleet_index;
    entry.file = Store::shard_filename(fleet_index, key);
    entry.cache_key = key;
    entry.records = log.incidents.size();
    entry.exposure_hours = log.exposure.hours();
    write_shard(dir + "/" + entry.file, key, fleet_index, log);
    return entry;
}

StoreCampaignStats run_campaign_with_store(const sim::CampaignConfig& config,
                                           Store& store,
                                           std::string_view inputs_digest) {
    if (config.fleets == 0) {
        throw std::invalid_argument("run_campaign_with_store: fleets must be >= 1");
    }
    if (!(config.hours_per_fleet > 0.0)) {
        throw std::invalid_argument(
            "run_campaign_with_store: hours_per_fleet must be > 0");
    }
    declare_metrics();

    std::atomic<std::size_t> simulated{0};
    std::atomic<std::size_t> reused{0};
    std::atomic<std::size_t> invalid{0};

    const CampaignKeys keys(config.base, config.hours_per_fleet, inputs_digest);
    StoreCampaignStats out;
    out.fleets_total = config.fleets;
    out.entries = exec::parallel_map<ShardEntry>(
        config.jobs, config.fleets, [&](std::size_t i) {
            const std::uint64_t key = keys.fleet_key(i);
            FleetShard shard = check_fleet_shard(store.dir(), i, key);
            if (shard.state == ShardState::Sealed) {
                reused.fetch_add(1, std::memory_order_relaxed);
                if (obs::enabled()) {
                    obs::add_counter("store.cache_hits", 1);
                    obs::add_counter("store.shards_reused", 1);
                }
            } else {
                if (shard.state == ShardState::Corrupt) {
                    invalid.fetch_add(1, std::memory_order_relaxed);
                    if (obs::enabled()) obs::add_counter("store.shards_invalid", 1);
                }
                if (obs::enabled()) obs::add_counter("store.cache_misses", 1);
                simulated.fetch_add(1, std::memory_order_relaxed);
                shard.entry = simulate_fleet_shard(config, store.dir(), i, key);
            }

            // Recording also deletes any shard a previous run left for this
            // fleet under another key (another config).
            store.record(shard.entry);
            return shard.entry;
        });

    out.fleets_simulated = simulated.load();
    out.fleets_reused = reused.load();
    out.shards_invalid = invalid.load();
    return out;
}

}  // namespace qrn::store
