// Store directory and manifest: persistence round trips, atomic-index
// semantics, rejection of foreign or damaged manifests, and the cache-key
// digest (sensitivity to every input, hex round trip).
#include "store/store.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "mutations.h"
#include "qrn/incident_type.h"
#include "qrn/serialize.h"
#include "sim/fleet.h"
#include "store/cache_key.h"
#include "store/campaign_store.h"
#include "store/format.h"

namespace qrn::store {
namespace {

std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "qrn_store_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

void write_text(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out << text;
}

ShardEntry entry_for(std::uint64_t fleet_index, std::uint64_t key) {
    ShardEntry entry;
    entry.fleet_index = fleet_index;
    entry.cache_key = key;
    entry.file = Store::shard_filename(fleet_index, key);
    entry.records = 10 * fleet_index + 1;
    entry.exposure_hours = 100.5 + static_cast<double>(fleet_index);
    return entry;
}

TEST(Store, FreshDirectoryHasNoManifest) {
    const std::string dir = fresh_dir("fresh");
    const Store store(dir);
    EXPECT_FALSE(store.manifest_found());
    EXPECT_TRUE(store.entries().empty());
    EXPECT_EQ(store.find(0), nullptr);
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    // Opening is not recording: no manifest is written until a shard is.
    EXPECT_FALSE(std::filesystem::exists(store.manifest_path()));
}

TEST(Store, RecordPersistsAcrossReopen) {
    const std::string dir = fresh_dir("reopen");
    {
        Store store(dir);
        store.record(entry_for(2, 0xABCDEF0123456789ULL));
        store.record(entry_for(0, 0x0000000000000042ULL));
    }
    const Store reopened(dir);
    EXPECT_TRUE(reopened.manifest_found());
    const auto entries = reopened.entries();
    ASSERT_EQ(entries.size(), 2u);
    // entries() is sorted by fleet index, independent of record order.
    EXPECT_EQ(entries[0].fleet_index, 0u);
    EXPECT_EQ(entries[1].fleet_index, 2u);
    EXPECT_EQ(entries[1].cache_key, 0xABCDEF0123456789ULL);
    EXPECT_EQ(entries[1].records, 21u);
    EXPECT_DOUBLE_EQ(entries[1].exposure_hours, 102.5);
    const ShardEntry* found = reopened.find(2);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->file, Store::shard_filename(2, 0xABCDEF0123456789ULL));
    EXPECT_EQ(reopened.shard_path(*found), dir + "/" + found->file);
    EXPECT_EQ(reopened.find(1), nullptr);
}

TEST(Store, RecordUpsertsByFleetIndex) {
    const std::string dir = fresh_dir("upsert");
    Store store(dir);
    store.record(entry_for(3, 1));
    store.record(entry_for(3, 2));
    const auto entries = store.entries();
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].cache_key, 2u);
}

TEST(Store, RecordingAnUnchangedRowLeavesTheManifestUntouched) {
    const std::string dir = fresh_dir("unchanged");
    ShardEntry entry = entry_for(4, 0x77);
    entry.exposure_hours = 1.0 / 3.0;  // must survive the JSON round trip exactly
    Store(dir).record(entry);

    const std::string path = Store(dir).manifest_path();
    const auto bytes_of = [&] {
        std::ifstream in(path);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    // Trailing blank lines keep the manifest valid but are bytes no rewrite
    // produces, so they survive only if record() leaves the file alone.
    const std::string stamped = bytes_of() + "\n\n";
    write_text(path, stamped);

    Store reopened(dir);  // the row now comes from the manifest on disk
    reopened.record(entry);
    EXPECT_EQ(bytes_of(), stamped);

    // A changed row is still written through.
    entry.records += 1;
    reopened.record(entry);
    EXPECT_NE(bytes_of(), stamped);
    EXPECT_EQ(Store(dir).find(4)->records, entry.records);
    std::filesystem::remove_all(dir);
}

TEST(Store, ShardFilenameIsFixedWidth) {
    EXPECT_EQ(Store::shard_filename(7, 0xABCULL), "fleet-00007-0000000000000abc.qrs");
    EXPECT_EQ(Store::shard_filename(0, 0xFFFFFFFFFFFFFFFFULL),
              "fleet-00000-ffffffffffffffff.qrs");
}

TEST(Store, RejectsAManifestOfAnotherKind) {
    const std::string dir = fresh_dir("kind");
    std::filesystem::create_directories(dir);
    write_text(dir + "/manifest.json",
               "{\"kind\": \"qrn.metrics\", \"schema_version\": 1, \"shards\": []}");
    try {
        const Store store(dir);
        FAIL() << "expected StoreError";
    } catch (const StoreError& error) {
        EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent);
    }
}

TEST(Store, RejectsUnparseableManifest) {
    const std::string dir = fresh_dir("garbage");
    std::filesystem::create_directories(dir);
    write_text(dir + "/manifest.json", "{not json");
    try {
        const Store store(dir);
        FAIL() << "expected StoreError";
    } catch (const StoreError& error) {
        EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent);
    }
}

TEST(Store, RejectsManifestEscapingTheDirectory) {
    const std::string dir = fresh_dir("escape");
    std::filesystem::create_directories(dir);
    write_text(dir + "/manifest.json",
               "{\"kind\": \"qrn.store\", \"schema_version\": 1, \"shards\": "
               "[{\"fleet_index\": 0, \"file\": \"../evil.qrs\", \"key\": "
               "\"0000000000000001\", \"records\": 0, \"exposure_hours\": 1.0}]}");
    try {
        const Store store(dir);
        FAIL() << "expected StoreError";
    } catch (const StoreError& error) {
        EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent);
    }
}

TEST(Store, RejectsManifestNumbersThatAreNotCounts) {
    // 1e300 and 2^64 used to load as fleet 0 through an undefined cast,
    // and 1.5 as fleet 1; each is a damaged row.
    for (const std::string field : {"fleet_index", "records"}) {
        for (const std::string bad : {"1e300", "1.5", "18446744073709551616", "-1"}) {
            const std::string dir = fresh_dir("count");
            std::filesystem::create_directories(dir);
            write_text(dir + "/manifest.json",
                       "{\"kind\": \"qrn.store\", \"schema_version\": 1, \"shards\": "
                       "[{\"fleet_index\": " + (field == "fleet_index" ? bad : "0") +
                           ", \"file\": \"fleet-00000-0000000000000001.qrs\", \"key\": "
                           "\"0000000000000001\", \"records\": " +
                           (field == "records" ? bad : "0") +
                           ", \"exposure_hours\": 1.0}]}");
            try {
                const Store store(dir);
                ADD_FAILURE() << "expected StoreError for " << field << " = " << bad;
            } catch (const StoreError& error) {
                EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent)
                    << field << " = " << bad;
            }
        }
    }
}

TEST(ManifestMutation, EveryMutantLoadsOrIsAStoreError) {
    // A real manifest: the one a three-fleet campaign leaves behind.
    const std::string dir = fresh_dir("manifest_mutation");
    std::string manifest;
    {
        Store store(dir);
        sim::CampaignConfig config;
        config.base.seed = 7;
        config.fleets = 3;
        config.hours_per_fleet = 20.0;
        (void)run_campaign_with_store(config, store, "incident-types-digest-v1");
        std::ifstream in(store.manifest_path(), std::ios::binary);
        manifest.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_EQ(Store(dir).entries().size(), 3u);

    std::size_t loaded = 0;
    std::vector<std::string> failures;
    for (const std::string& mutant : mutation::mutants(manifest, 0x6d616e6966657374, 300)) {
        write_text(dir + "/manifest.json", mutant);
        try {
            loaded += Store(dir).manifest_found() ? 1 : 0;
        } catch (const StoreError&) {
        } catch (const std::exception& error) {
            failures.push_back(error.what());
        }
    }
    EXPECT_GT(loaded, 0u);
    EXPECT_EQ(failures.size(), 0u)
        << "first: " << (failures.empty() ? std::string() : failures.front());
    std::filesystem::remove_all(dir);
}

TEST(Store, StrayTempFilesAreReportedSorted) {
    const std::string dir = fresh_dir("stray");
    Store store(dir);
    write_text(dir + "/fleet-00001-00000000000000aa.qrs.tmp", "torn");
    write_text(dir + "/fleet-00000-00000000000000bb.qrs.tmp", "torn");
    write_text(dir + "/fleet-00000-00000000000000cc.qrs", "sealed-looking");
    const auto stray = store.stray_temp_files();
    ASSERT_EQ(stray.size(), 2u);
    EXPECT_EQ(stray[0], "fleet-00000-00000000000000bb.qrs.tmp");
    EXPECT_EQ(stray[1], "fleet-00001-00000000000000aa.qrs.tmp");
}

TEST(KeyHex, RoundTripsAndRejectsAnythingElse) {
    EXPECT_EQ(key_hex(0), "0000000000000000");
    EXPECT_EQ(key_hex(0xDEADBEEF01234567ULL), "deadbeef01234567");
    EXPECT_EQ(key_from_hex("deadbeef01234567"), 0xDEADBEEF01234567ULL);
    for (const std::string bad :
         {"", "123", "deadbeef0123456", "deadbeef012345678", "DEADBEEF01234567",
          "deadbeef0123456g"}) {
        try {
            (void)key_from_hex(bad);
            FAIL() << "accepted '" << bad << "'";
        } catch (const StoreError& error) {
            EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent) << bad;
        }
    }
}

TEST(CacheKey, DeterministicPureFunction) {
    const sim::FleetConfig base;
    EXPECT_EQ(fleet_cache_key(base, 100.0, 3, "digest"),
              fleet_cache_key(base, 100.0, 3, "digest"));
}

TEST(CacheKey, GoldenKeyIsPinned) {
    // Every sealed shard in every existing store is named by this digest.
    // A refactor that changes the byte stream must fail here, not orphan
    // those shards while every other test still passes.
    EXPECT_EQ(key_hex(fleet_cache_key(sim::FleetConfig{}, 100.0, 3, "digest")),
              "64b68e56cdd7023d");
}

TEST(CacheKey, CampaignKeysMatchTheOneShotKey) {
    // fleet_cache_key hashes every byte; CampaignKeys folds the digest
    // tail once per campaign and looks it up per fleet. They must agree
    // for every fleet, config and inputs digest. 5000 fleets put about 20
    // fleets through each of the 256 folded low bytes, and the extreme
    // indices set the high index bytes.
    sim::FleetConfig other;
    other.seed = 0xDEADBEEFCAFE1234ULL;
    other.policy.speed_factor += 0.125;
    other.odd.allow_snow = !other.odd.allow_snow;
    // The catalog digest the CLI keys its campaigns with
    // (sched::campaign_inputs_digest), and a digest of 5000 0xFF bytes.
    const std::string catalog = to_json(IncidentTypeSet::paper_vru_example()).dump();
    const std::string all_ones(5000, '\xff');
    for (const sim::FleetConfig& base : {sim::FleetConfig{}, other}) {
        for (const std::string_view digest :
             {std::string_view(""), std::string_view("digest"),
              std::string_view(catalog), std::string_view(all_ones)}) {
            const CampaignKeys keys(base, 123.456, digest);
            std::vector<std::size_t> fleets(5000);
            std::iota(fleets.begin(), fleets.end(), std::size_t{0});
            fleets.push_back(std::size_t{1} << 40);
            fleets.push_back(SIZE_MAX);
            for (const std::size_t i : fleets) {
                ASSERT_EQ(keys.fleet_key(i), fleet_cache_key(base, 123.456, i, digest))
                    << "fleet " << i << ", digest of " << digest.size() << " bytes";
            }
        }
    }
}

TEST(CacheKey, EveryInputChangesTheKey) {
    // A representative field from each mixed struct: if any of these
    // collided, a config edit could silently reuse a stale shard.
    const sim::FleetConfig base;
    std::set<std::uint64_t> keys;
    const auto key_of = [&](const sim::FleetConfig& config, double hours,
                            std::size_t index, std::string_view digest) {
        return fleet_cache_key(config, hours, index, digest);
    };
    keys.insert(key_of(base, 100.0, 0, "digest"));

    const auto expect_fresh = [&](const sim::FleetConfig& config, double hours,
                                  std::size_t index, std::string_view digest,
                                  const char* what) {
        EXPECT_TRUE(keys.insert(key_of(config, hours, index, digest)).second) << what;
    };

    expect_fresh(base, 101.0, 0, "digest", "hours_per_fleet");
    expect_fresh(base, 100.0, 1, "digest", "fleet_index");
    expect_fresh(base, 100.0, 0, "digest2", "inputs_digest");

    sim::FleetConfig config = base;
    config.seed += 1;
    expect_fresh(config, 100.0, 0, "digest", "seed");

    config = base;
    config.odd.allow_rain = !config.odd.allow_rain;
    expect_fresh(config, 100.0, 0, "digest", "odd.allow_rain");

    config = base;
    config.policy.speed_factor += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "policy.speed_factor");

    config = base;
    config.perception.blackout_probability += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "perception.blackout_probability");

    config = base;
    config.detector.near_miss_max_distance_m += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "detector.near_miss_max_distance_m");

    config = base;
    config.faults.brake_degradation_probability += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "faults.brake_degradation_probability");

    config = base;
    config.faults.policy_aware = !config.faults.policy_aware;
    expect_fresh(config, 100.0, 0, "digest", "faults.policy_aware");

    config = base;
    config.secondary.follower_presence += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "secondary.follower_presence");

    config = base;
    config.odd_exit.exit_probability += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "odd_exit.exit_probability");

    config = base;
    config.environment_persistence += 0.001;
    expect_fresh(config, 100.0, 0, "digest", "environment_persistence");
}

TEST(CacheKey, BitLevelDoubleSensitivity) {
    // 0.1 vs the next representable double: different runs, different keys.
    sim::FleetConfig a;
    a.environment_persistence = 0.1;
    sim::FleetConfig b = a;
    b.environment_persistence = std::nextafter(0.1, 1.0);
    EXPECT_NE(fleet_cache_key(a, 100.0, 0, ""), fleet_cache_key(b, 100.0, 0, ""));
}

TEST(KeyHasher, LengthPrefixPreventsAliasing) {
    KeyHasher ab_c;
    ab_c.mix_string("ab");
    ab_c.mix_string("c");
    KeyHasher a_bc;
    a_bc.mix_string("a");
    a_bc.mix_string("bc");
    EXPECT_NE(ab_c.digest(), a_bc.digest());
}

}  // namespace
}  // namespace qrn::store
