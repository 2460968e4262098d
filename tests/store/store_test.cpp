// Store directory, listing and header: which file names the listing
// takes as shards and in what order, one shard per fleet, a header written
// once and never again, rejection of foreign or damaged headers, and the
// cache-key digest (sensitivity to every input, hex round trip).
#include "store/store.h"

#include <algorithm>
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
#include "qrn/json.h"
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

std::string read_text(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

ShardEntry entry_for(std::uint64_t fleet_index, std::uint64_t key) {
    ShardEntry entry;
    entry.fleet_index = fleet_index;
    entry.cache_key = key;
    entry.file = Store::shard_filename(fleet_index, key);
    return entry;
}

/// The file names in `dir`, sorted.
std::vector<std::string> names_in(const std::string& dir) {
    std::vector<std::string> names;
    for (const auto& item : std::filesystem::directory_iterator(dir)) {
        names.push_back(item.path().filename().string());
    }
    std::sort(names.begin(), names.end());
    return names;
}

/// A manifest as builds before the listing wrote it: the header members
/// plus one row per shard, laid out by json dump(2).
std::string parent_format_manifest(const std::vector<ShardEntry>& entries) {
    json::Array shards;
    for (const ShardEntry& entry : entries) {
        json::Object row;
        row.emplace_back("fleet_index", static_cast<std::size_t>(entry.fleet_index));
        row.emplace_back("file", entry.file);
        row.emplace_back("key", key_hex(entry.cache_key));
        row.emplace_back("records", static_cast<std::size_t>(entry.records));
        row.emplace_back("exposure_hours", entry.exposure_hours);
        shards.emplace_back(std::move(row));
    }
    json::Object doc;
    doc.emplace_back("kind", std::string("qrn.store"));
    doc.emplace_back("schema_version", 1);
    doc.emplace_back("shards", std::move(shards));
    return json::Value(std::move(doc)).dump(2) + "\n";
}

TEST(Store, FreshDirectoryHasNoManifest) {
    const std::string dir = fresh_dir("fresh");
    const Store store(dir);
    EXPECT_FALSE(store.manifest_found());
    EXPECT_TRUE(store.entries().empty());
    EXPECT_TRUE(std::filesystem::is_directory(dir));
    // Opening is not recording: no header is written until a shard is.
    EXPECT_FALSE(std::filesystem::exists(store.manifest_path()));
}

TEST(Store, RecordPersistsAcrossReopen) {
    const std::string dir = fresh_dir("reopen");
    {
        Store store(dir);
        for (const auto& [fleet, key] :
             {std::pair<std::uint64_t, std::uint64_t>{2, 0xABCDEF0123456789ULL},
              {0, 0x0000000000000042ULL}}) {
            // The listing reads names, not bytes: a sealed-looking file is
            // enough for the index (reuse would re-verify it).
            write_text(dir + "/" + Store::shard_filename(fleet, key), "sealed");
            store.record(entry_for(fleet, key));
        }
    }
    const Store reopened(dir);
    EXPECT_TRUE(reopened.manifest_found());
    const auto entries = reopened.entries();
    ASSERT_EQ(entries.size(), 2u);
    // entries() is sorted by fleet index, independent of record order.
    EXPECT_EQ(entries[0].fleet_index, 0u);
    EXPECT_EQ(entries[0].cache_key, 0x42u);
    EXPECT_EQ(entries[1].fleet_index, 2u);
    EXPECT_EQ(entries[1].cache_key, 0xABCDEF0123456789ULL);
    EXPECT_EQ(entries[1].file, Store::shard_filename(2, 0xABCDEF0123456789ULL));
    EXPECT_EQ(reopened.shard_path(entries[1]), dir + "/" + entries[1].file);
    // The footer figures are not the listing's business.
    EXPECT_EQ(entries[1].records, 0u);
    EXPECT_EQ(entries[1].exposure_hours, 0.0);
    EXPECT_EQ(names_in(dir),
              (std::vector<std::string>{entries[0].file, entries[1].file, "manifest.json"}));
    std::filesystem::remove_all(dir);
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
    const ShardEntry entry = entry_for(4, 0x77);
    Store(dir).record(entry);
    write_text(dir + "/" + entry.file, "sealed");

    const std::string path = Store(dir).manifest_path();
    // Trailing blank lines keep the header valid but are bytes no write
    // produces, so they survive only if record() leaves the file alone.
    const std::string stamped = read_text(path) + "\n\n";
    write_text(path, stamped);

    Store reopened(dir);  // the shard now comes from the listing
    ASSERT_EQ(reopened.entries(), std::vector<ShardEntry>{entry});
    reopened.record(entry);
    EXPECT_EQ(read_text(path), stamped);
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + entry.file));
    std::filesystem::remove_all(dir);
}

TEST(Store, RecordWritesNoBytesPerSeal) {
    // Linearity without a clock: after the first record() writes the
    // header, recording writes nothing at all, however many shards there
    // are. Perfbench's probe records entries with no file behind them, as
    // here, so record() must not need the shard either.
    const std::string dir = fresh_dir("no_bytes_per_seal");
    Store store(dir);
    store.record(entry_for(0, 0x10));
    const std::string path = store.manifest_path();
    const std::string stamped = read_text(path) + "\n\n";
    write_text(path, stamped);
    for (std::uint64_t fleet = 1; fleet <= 1000; ++fleet) {
        store.record(entry_for(fleet, 0x10 + fleet));
    }
    EXPECT_EQ(read_text(path), stamped);
    EXPECT_EQ(names_in(dir), std::vector<std::string>{"manifest.json"});
    EXPECT_EQ(store.entries().size(), 1001u);
    std::filesystem::remove_all(dir);
}

TEST(Store, ShardFilenameIsFixedWidth) {
    EXPECT_EQ(Store::shard_filename(7, 0xABCULL), "fleet-00007-0000000000000abc.qrs");
    EXPECT_EQ(Store::shard_filename(0, 0xFFFFFFFFFFFFFFFFULL),
              "fleet-00000-ffffffffffffffff.qrs");
}

TEST(Store, ListingTakesOnlyCanonicalShardNamesInIndexOrder) {
    const std::string dir = fresh_dir("grammar");
    std::filesystem::create_directories(dir);
    // Names that must list, in the order entries() must return them: past
    // 99999 the index widens, so name order would put 100000 first.
    const std::vector<std::string> shards{
        "fleet-00000-0000000000000000.qrs",
        "fleet-00007-0000000000000abc.qrs",
        "fleet-99999-ffffffffffffffff.qrs",
        "fleet-100000-0123456789abcdef.qrs",
        "fleet-18446744073709551615-00000000000000ff.qrs",
    };
    const std::vector<std::string> not_shards{
        "fleet-7-0000000000000abc.qrs",          // unpadded index
        "fleet-000007-0000000000000abc.qrs",     // padded too far
        "fleet-00008-0000000000000ABC.qrs",      // uppercase hex
        "fleet-00009-000000000000abc.qrs",       // 15-digit key
        "fleet-00010-00000000000000abc.qrs",     // 17-digit key
        "fleet-18446744073709551616-0000000000000001.qrs",  // index past 2^64
        "fleet-+0011-0000000000000001.qrs",
        "fleet--0012-0000000000000001.qrs",
        "fleet-00013-0x00000000000001.qrs",
        "fleet--0000000000000001.qrs",
        "fleet-00014-0000000000000001.QRS",
        "Fleet-00015-0000000000000001.qrs",
        "fleet-00016-0000000000000001.qrs~",
        "fleet-00017-0000000000000001-0000000000000001.qrs",
        "fleet-00018_0000000000000001.qrs",
        "fleet-.qrs",
        "notes.txt",
    };
    for (const auto& name : shards) write_text(dir + "/" + name, "sealed");
    for (const auto& name : not_shards) write_text(dir + "/" + name, "sealed");
    // A directory with a shard's name is not a shard either.
    std::filesystem::create_directories(dir + "/fleet-00019-0000000000000001.qrs");
    write_text(dir + "/fleet-00020-0000000000000001.qrs.tmp", "torn");

    const Store store(dir);
    std::vector<std::string> listed;
    for (const auto& entry : store.entries()) {
        EXPECT_EQ(entry.file, Store::shard_filename(entry.fleet_index, entry.cache_key));
        listed.push_back(entry.file);
    }
    EXPECT_EQ(listed, shards);
    EXPECT_EQ(store.stray_temp_files(),
              std::vector<std::string>{"fleet-00020-0000000000000001.qrs.tmp"});
    std::filesystem::remove_all(dir);
}

TEST(Store, TwoShardsOfOneFleetAreInconsistentUntilOneIsRecorded) {
    // A crash between sealing a fleet's new shard and removing its old one
    // leaves both; no reader may pick one silently.
    const std::string dir = fresh_dir("duplicate");
    std::filesystem::create_directories(dir);
    const ShardEntry old_shard = entry_for(3, 0x0a);
    const ShardEntry new_shard = entry_for(3, 0x0b);
    write_text(dir + "/" + entry_for(1, 0x01).file, "sealed");
    write_text(dir + "/" + old_shard.file, "sealed");
    write_text(dir + "/" + new_shard.file, "sealed");
    {
        const Store store(dir);
        try {
            (void)store.entries();
            FAIL() << "expected StoreError";
        } catch (const StoreError& error) {
            EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent);
            EXPECT_NE(std::string(error.what()).find(old_shard.file), std::string::npos)
                << error.what();
            EXPECT_NE(std::string(error.what()).find(new_shard.file), std::string::npos)
                << error.what();
        }
    }
    Store store(dir);
    store.record(new_shard);
    EXPECT_FALSE(std::filesystem::exists(dir + "/" + old_shard.file));
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + new_shard.file));
    const auto entries = Store(dir).entries();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[1], new_shard);
    std::filesystem::remove_all(dir);
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

TEST(ManifestMutation, EveryMutantLoadsOrIsAStoreError) {
    // The two headers a store can hold: the one this build writes, and a
    // manifest with shard rows that older builds kept (rows are never
    // read, but their bytes still pass through the header parser).
    const std::string dir = fresh_dir("manifest_mutation");
    std::string header;
    std::vector<ShardEntry> rows;
    {
        Store store(dir);
        sim::CampaignConfig config;
        config.base.seed = 7;
        config.fleets = 3;
        config.hours_per_fleet = 20.0;
        rows = run_campaign_with_store(config, store, "incident-types-digest-v1").entries;
        header = read_text(store.manifest_path());
    }
    ASSERT_EQ(Store(dir).entries().size(), 3u);

    for (const std::string& valid : {header, parent_format_manifest(rows)}) {
        std::size_t loaded = 0;
        std::vector<std::string> failures;
        for (const std::string& mutant : mutation::mutants(valid, 0x6d616e6966657374, 300)) {
            write_text(dir + "/manifest.json", mutant);
            try {
                const Store store(dir);
                loaded += store.manifest_found() ? 1 : 0;
                // However the header reads, the shards come from the listing.
                EXPECT_EQ(store.entries().size(), 3u);
            } catch (const StoreError&) {
            } catch (const std::exception& error) {
                failures.push_back(error.what());
            }
        }
        EXPECT_GT(loaded, 0u);
        EXPECT_EQ(failures.size(), 0u)
            << "first: " << (failures.empty() ? std::string() : failures.front());
    }
    std::filesystem::remove_all(dir);
}

TEST(Store, StrayTempFilesAreReportedSorted) {
    const std::string dir = fresh_dir("stray");
    std::filesystem::create_directories(dir);
    write_text(dir + "/fleet-00001-00000000000000aa.qrs.tmp", "torn");
    write_text(dir + "/fleet-00000-00000000000000bb.qrs.tmp", "torn");
    write_text(dir + "/fleet-00000-00000000000000cc.qrs", "sealed-looking");
    // The strays come from the same listing as the shards: the one made
    // when the store opens.
    const Store store(dir);
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
