// Shard format: bit-identical round trips, block framing, crash safety of
// the temp-file protocol, the corruption matrix (every StoreErrorKind
// surfaces for the defect that defines it), and exhaustive mutations of the
// pinned golden shard for the reader's buffer handling.
#include "store/shard.h"

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "store/campaign_store.h"
#include "store/crc32.h"
#include "store/format.h"
#include "store/sync.h"

namespace qrn::store {
namespace {

std::string temp_shard(const std::string& name) {
    return ::testing::TempDir() + "qrn_shard_" + name + std::string(kShardExtension);
}

// Binary file access via streambuf iterators / operator<<: tests stay out
// of the raw .read()/.write() surface the raw-file-io lint rule confines
// to src/store.
std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open()) << path;
    out << bytes;
}

Incident sample_incident(std::size_t i) {
    Incident incident;
    incident.first = (i % 7 == 3) ? ActorType::Car : ActorType::EgoVehicle;
    incident.second = actor_type_from_index(i % kActorTypeCount);
    incident.mechanism =
        (i % 3 == 0) ? IncidentMechanism::NearMiss : IncidentMechanism::Collision;
    // Deliberately non-representable decimals: the round trip must carry the
    // exact IEEE bit patterns, not a decimal rendering.
    incident.relative_speed_kmh = 0.1 + static_cast<double>(i) / 3.0;
    incident.min_distance_m =
        incident.mechanism == IncidentMechanism::NearMiss ? 0.7 + 0.01 * static_cast<double>(i)
                                                          : 0.0;
    incident.ego_causing_factor = (i % 7 == 3);
    incident.timestamp_hours = static_cast<double>(i) * 0.977;
    return incident;
}

sim::IncidentLog sample_log(std::size_t records) {
    sim::IncidentLog log;
    for (std::size_t i = 0; i < records; ++i) log.incidents.push_back(sample_incident(i));
    log.exposure = ExposureHours(123.25 + static_cast<double>(records) / 7.0);
    log.encounters = 9001 + records;
    log.emergency_brakings = 41;
    log.degraded_hours = 7;
    log.odd_exits = 5;
    log.mrm_executions = 4;
    log.unmonitored_exits = 1;
    return log;
}

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_bit_identical(const sim::IncidentLog& a, const sim::IncidentLog& b) {
    ASSERT_EQ(a.incidents.size(), b.incidents.size());
    for (std::size_t i = 0; i < a.incidents.size(); ++i) {
        const Incident& x = a.incidents[i];
        const Incident& y = b.incidents[i];
        EXPECT_EQ(x.first, y.first) << i;
        EXPECT_EQ(x.second, y.second) << i;
        EXPECT_EQ(x.mechanism, y.mechanism) << i;
        EXPECT_EQ(bits(x.relative_speed_kmh), bits(y.relative_speed_kmh)) << i;
        EXPECT_EQ(bits(x.min_distance_m), bits(y.min_distance_m)) << i;
        EXPECT_EQ(x.ego_causing_factor, y.ego_causing_factor) << i;
        EXPECT_EQ(bits(x.timestamp_hours), bits(y.timestamp_hours)) << i;
    }
    EXPECT_EQ(bits(a.exposure.hours()), bits(b.exposure.hours()));
    EXPECT_EQ(a.encounters, b.encounters);
    EXPECT_EQ(a.emergency_brakings, b.emergency_brakings);
    EXPECT_EQ(a.degraded_hours, b.degraded_hours);
    EXPECT_EQ(a.odd_exits, b.odd_exits);
    EXPECT_EQ(a.mrm_executions, b.mrm_executions);
    EXPECT_EQ(a.unmonitored_exits, b.unmonitored_exits);
}

StoreErrorKind kind_of(const std::string& path) {
    try {
        (void)verify_shard(path);
    } catch (const StoreError& error) {
        return error.kind();
    }
    ADD_FAILURE() << "expected a StoreError from " << path;
    return StoreErrorKind::Io;
}

/// The largest legal frame, a full block: tag, count, kBlockRecords
/// records, CRC. The reader's buffer is exactly this size, so a sealed
/// shard of this length arrives whole in the first read.
constexpr std::size_t kLargestFrameBytes = 8 + std::size_t{kBlockRecords} * kRecordBytes + 4;

/// What verify_shard makes of the file at `path`: nullopt when it
/// accepts it.
std::optional<StoreErrorKind> verdict(const std::string& path) {
    try {
        (void)verify_shard(path);
    } catch (const StoreError& error) {
        return error.kind();
    }
    return std::nullopt;
}

/// The fleet CampaignStore.SealedFleetShardMatchesPinnedBytes pins.
std::string golden_shard_bytes() {
    sim::CampaignConfig config;
    config.base.odd = sim::Odd::urban();
    config.base.policy = sim::TacticalPolicy::nominal();
    config.base.seed = 100;
    config.fleets = 4;
    config.hours_per_fleet = 400.0;
    const std::string dir = ::testing::TempDir() + "qrn_shard_mutation_golden";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const ShardEntry entry = simulate_fleet_shard(config, dir, 2, 0x5eed0f1eed5eedULL);
    std::string bytes = slurp(dir + "/" + entry.file);
    std::filesystem::remove_all(dir);
    return bytes;
}

/// A sealed shard assembled by hand from blocks of the given sizes - a
/// partition the writer, which fills every block but the last, never
/// produces, yet one the format allows and every reader must accept.
std::string craft_shard(const std::vector<std::uint32_t>& block_records,
                        std::uint64_t cache_key) {
    std::string header(kShardMagic);
    put_u32(header, kShardVersion);
    put_u32(header, 0);
    put_u64(header, cache_key);
    put_u64(header, 0);
    std::string out = header;
    put_u32(out, crc32(header));
    std::uint64_t records = 0;
    for (const std::uint32_t count : block_records) {
        std::string payload;
        for (std::uint32_t r = 0; r < count; ++r) encode_record(payload, sample_incident(records++));
        put_u32(out, kBlockTag);
        put_u32(out, count);
        out += payload;
        put_u32(out, crc32(payload));
    }
    std::string footer;
    put_u64(footer, records);
    put_f64(footer, 10.0);
    for (int counter = 0; counter < 6; ++counter) put_u64(footer, 0);
    put_u64(footer, cache_key);
    put_u32(out, kFooterTag);
    out += footer;
    put_u32(out, crc32(footer));
    return out;
}

TEST(Codec, LittleEndianRoundTrip) {
    std::string bytes;
    put_u32(bytes, 0x01020304u);
    put_u64(bytes, 0x1122334455667788ULL);
    put_f64(bytes, -0.1);
    EXPECT_EQ(bytes.size(), 20u);
    // Low byte first: the format is defined independent of host endianness.
    EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0x04u);
    EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 0x88u);
    EXPECT_EQ(get_u32(bytes, 0), 0x01020304u);
    EXPECT_EQ(get_u64(bytes, 4), 0x1122334455667788ULL);
    EXPECT_EQ(bits(get_f64(bytes, 12)), bits(-0.1));
}

TEST(Shard, RoundTripIsBitIdentical) {
    const std::string path = temp_shard("roundtrip");
    const auto log = sample_log(5);
    write_shard(path, 0xDEADBEEFCAFE0123ULL, 17, log);

    sim::IncidentLog back;
    const ShardInfo info = read_shard(path, back);
    EXPECT_EQ(info.cache_key, 0xDEADBEEFCAFE0123ULL);
    EXPECT_EQ(info.fleet_index, 17u);
    EXPECT_EQ(info.records, 5u);
    EXPECT_EQ(info.totals, totals_of(log));
    EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path));
    expect_bit_identical(log, back);
    std::filesystem::remove(path);
}

TEST(Shard, BlockBoundariesRoundTrip) {
    // 0 records (footer only), exactly one full block, and a multi-block
    // shard with a partial tail block.
    for (const std::size_t records : {std::size_t{0}, std::size_t{kBlockRecords},
                                      std::size_t{2 * kBlockRecords + 176}}) {
        const std::string path = temp_shard("blocks_" + std::to_string(records));
        const auto log = sample_log(records);
        write_shard(path, 1, 0, log);
        sim::IncidentLog back;
        const ShardInfo info = read_shard(path, back);
        EXPECT_EQ(info.records, records);
        expect_bit_identical(log, back);
        std::filesystem::remove(path);
    }
}

TEST(Shard, ForEachBlockStreamsTheSameRows) {
    // The block scan (the path of verify, read, aggregate and merge)
    // surfaces exactly the logged rows, in order, one span per block of
    // at most kBlockRecords rows.
    const std::string path = temp_shard("block_scan");
    const auto log = sample_log(2 * kBlockRecords + 39);
    write_shard(path, 4, 1, log);

    ShardReader reader(path);
    std::vector<Incident> scanned;
    std::vector<std::size_t> block_sizes;
    const ShardInfo info =
        reader.for_each_block([&](std::span<const Incident> block) {
            block_sizes.push_back(block.size());
            scanned.insert(scanned.end(), block.begin(), block.end());
        });
    EXPECT_EQ(info.records, log.incidents.size());
    EXPECT_EQ(block_sizes,
              (std::vector<std::size_t>{kBlockRecords, kBlockRecords, 39}));
    EXPECT_EQ(scanned, log.incidents);
    std::filesystem::remove(path);
}

TEST(Shard, UnsealedWriterLeavesNoFinalFile) {
    const std::string path = temp_shard("unsealed");
    {
        ShardWriter writer(path, 1, 0);
        writer.append(sample_incident(0));
        // Destroyed without seal(): the crash case.
    }
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_FALSE(std::filesystem::exists(path + std::string(kTempSuffix)));
}

/// Installs a sync hook for one test and always restores production
/// behaviour, even when the test body throws.
class SyncHookGuard {
public:
    explicit SyncHookGuard(std::function<void(SyncKind, const std::string&)> hook) {
        detail::set_sync_hook_for_test(std::move(hook));
    }
    ~SyncHookGuard() { detail::set_sync_hook_for_test(nullptr); }
    SyncHookGuard(const SyncHookGuard&) = delete;
    SyncHookGuard& operator=(const SyncHookGuard&) = delete;
};

TEST(ShardDurability, SealSyncsTempFileBeforeRenameAndDirectoryAfter) {
    // The durability contract: temp-file fsync BEFORE the rename publishes
    // the final name, directory fsync AFTER. The hook fires before each
    // real fsync, so the recorded order plus the filesystem state at each
    // event pins the sequence.
    const std::string path = temp_shard("durability_order");
    std::vector<std::pair<SyncKind, std::string>> events;
    std::vector<bool> final_existed_at_event;
    const SyncHookGuard guard([&](SyncKind kind, const std::string& target) {
        events.emplace_back(kind, target);
        final_existed_at_event.push_back(std::filesystem::exists(path));
    });
    write_shard(path, 42, 7, sample_log(5));

    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].first, SyncKind::File);
    EXPECT_EQ(events[0].second, path + std::string(kTempSuffix));
    EXPECT_FALSE(final_existed_at_event[0]) << "file sync must precede rename";
    EXPECT_EQ(events[1].first, SyncKind::Directory);
    EXPECT_EQ(events[1].second,
              std::filesystem::path(path).parent_path().string());
    EXPECT_TRUE(final_existed_at_event[1]) << "directory sync must follow rename";
    std::filesystem::remove(path);
}

TEST(ShardDurability, TempFileSyncFailureIsIoAndNeverPublishes) {
    const std::string path = temp_shard("durability_fail");
    const SyncHookGuard guard([](SyncKind kind, const std::string&) {
        if (kind == SyncKind::File) {
            throw StoreError(StoreErrorKind::Io, "injected fsync failure");
        }
    });
    {
        ShardWriter writer(path, 1, 0);
        writer.append(sample_incident(0));
        try {
            // The receipt never materializes: seal() throws before the
            // rename, so there is nothing to check here.
            static_cast<void>(writer.seal(ShardTotals{}));
            FAIL() << "expected the injected fsync failure to propagate";
        } catch (const StoreError& error) {
            EXPECT_EQ(error.kind(), StoreErrorKind::Io);
        }
        // seal() failed before the rename: the final name must not exist.
        EXPECT_FALSE(std::filesystem::exists(path));
    }
    // The unsealed writer's destructor cleans up the temp file as usual.
    EXPECT_FALSE(std::filesystem::exists(path + std::string(kTempSuffix)));
}

TEST(Shard, SealReceiptPinsRecordsAndFileBytes) {
    // The receipt is durability evidence: its record count must match what
    // was appended and its byte count must match the file that actually
    // landed under the final name.
    const auto log = sample_log(kBlockRecords + 3);
    const std::string path = temp_shard("receipt");
    ShardWriter writer(path, 5, 1);
    for (const Incident incident : log.incidents) writer.append(incident);
    const SealReceipt receipt = writer.seal(totals_of(log));
    EXPECT_EQ(receipt.records, log.incidents.size());
    EXPECT_EQ(receipt.file_bytes, std::filesystem::file_size(path));
    // The reader's self-description agrees with the writer's receipt.
    const ShardInfo info = verify_shard(path);
    EXPECT_EQ(info.records, receipt.records);
    EXPECT_EQ(info.file_bytes, receipt.file_bytes);
    std::filesystem::remove(path);
}

TEST(Shard, AppendAfterSealIsALogicError) {
    const std::string path = temp_shard("sealed_append");
    ShardWriter writer(path, 1, 0);
    const SealReceipt receipt = writer.seal(ShardTotals{});
    EXPECT_EQ(receipt.records, 0u);
    EXPECT_THROW(writer.append(sample_incident(0)), std::logic_error);
    std::filesystem::remove(path);
}

TEST(Shard, TotalsOfMirrorsTheLog) {
    const auto log = sample_log(3);
    const ShardTotals totals = totals_of(log);
    EXPECT_EQ(bits(totals.exposure_hours), bits(log.exposure.hours()));
    EXPECT_EQ(totals.encounters, log.encounters);
    EXPECT_EQ(totals.emergency_brakings, log.emergency_brakings);
    EXPECT_EQ(totals.degraded_hours, log.degraded_hours);
    EXPECT_EQ(totals.odd_exits, log.odd_exits);
    EXPECT_EQ(totals.mrm_executions, log.mrm_executions);
    EXPECT_EQ(totals.unmonitored_exits, log.unmonitored_exits);
}

TEST(ShardCorruption, MissingFileIsIo) {
    const std::string path = temp_shard("missing");
    std::filesystem::remove(path);
    EXPECT_EQ(kind_of(path), StoreErrorKind::Io);
}

TEST(ShardCorruption, ForeignBytesAreBadMagic) {
    const std::string path = temp_shard("magic");
    spit(path, "definitely not a shard, but comfortably longer than a header");
    EXPECT_EQ(kind_of(path), StoreErrorKind::BadMagic);
    std::filesystem::remove(path);
}

TEST(ShardCorruption, FutureVersionIsBadVersion) {
    const std::string path = temp_shard("version");
    write_shard(path, 1, 0, sample_log(2));
    std::string bytes = slurp(path);
    // Header payload = magic(8) + version(4) + flags(4) + key(8) + fleet(8);
    // patch the version and re-seal the header CRC so only the version is
    // "wrong" - the reader must report BadVersion, not Checksum.
    std::string patched = bytes.substr(0, 8);
    put_u32(patched, kShardVersion + 1);
    patched += bytes.substr(12, 20);
    std::string header = patched;
    put_u32(header, crc32(patched));
    spit(path, header + bytes.substr(36));
    EXPECT_EQ(kind_of(path), StoreErrorKind::BadVersion);
    std::filesystem::remove(path);
}

TEST(ShardCorruption, TruncationIsDetected) {
    const std::string path = temp_shard("truncated");
    write_shard(path, 1, 0, sample_log(20));
    const std::string bytes = slurp(path);
    spit(path, bytes.substr(0, bytes.size() - 10));
    EXPECT_EQ(kind_of(path), StoreErrorKind::Truncated);
    std::filesystem::remove(path);
}

TEST(ShardCorruption, HeaderOnlyFileIsTruncated) {
    // The crash window between header and footer: a shard with no footer is
    // an interrupted write, never an empty log.
    const std::string path = temp_shard("headeronly");
    write_shard(path, 1, 0, sample_log(0));
    const std::string bytes = slurp(path);
    spit(path, bytes.substr(0, 36));
    EXPECT_EQ(kind_of(path), StoreErrorKind::Truncated);
    std::filesystem::remove(path);
}

TEST(ShardCorruption, RecordBitFlipIsChecksum) {
    const std::string path = temp_shard("bitflip");
    write_shard(path, 1, 0, sample_log(20));
    std::string bytes = slurp(path);
    bytes[60] = static_cast<char>(bytes[60] ^ 0x01);  // inside the first block
    spit(path, bytes);
    EXPECT_EQ(kind_of(path), StoreErrorKind::Checksum);
    std::filesystem::remove(path);
}

TEST(ShardCorruption, FooterKeyMismatchIsInconsistent) {
    const std::string path = temp_shard("footerkey");
    write_shard(path, 0x1111111111111111ULL, 0, sample_log(4));
    const std::string bytes = slurp(path);
    // Footer = tag(4), then a 72-byte payload (records, exposure, six
    // counters, echoed key) whose CRC(4) closes the file. Swap the echoed
    // key and re-seal the CRC: every checksum passes, but the shard
    // contradicts itself.
    const std::size_t payload_at = bytes.size() - 76;
    std::string payload = bytes.substr(payload_at, 64);
    put_u64(payload, 0x2222222222222222ULL);
    std::string sealed = payload;
    put_u32(sealed, crc32(payload));
    spit(path, bytes.substr(0, payload_at) + sealed);
    EXPECT_EQ(kind_of(path), StoreErrorKind::Inconsistent);
    std::filesystem::remove(path);
}

TEST(ShardCorruption, TrailingGarbageIsInconsistent) {
    const std::string path = temp_shard("trailing");
    write_shard(path, 1, 0, sample_log(2));
    spit(path, slurp(path) + "extra");
    EXPECT_EQ(kind_of(path), StoreErrorKind::Inconsistent);
    std::filesystem::remove(path);
}

TEST(ShardCorruption, ErrorsCarryKindPrefixAndPath) {
    const std::string path = temp_shard("message");
    spit(path, "garbage garbage garbage garbage garbage garbage");
    try {
        (void)verify_shard(path);
        FAIL() << "expected StoreError";
    } catch (const StoreError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("[bad-magic]"), std::string::npos) << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
        EXPECT_TRUE(error.is_corruption());
    }
    std::filesystem::remove(path);
}

TEST(Shard, VerifyAgreesWithRead) {
    const std::string path = temp_shard("verify");
    const auto log = sample_log(700);  // spans a block boundary
    write_shard(path, 77, 3, log);
    sim::IncidentLog back;
    const ShardInfo read_info = read_shard(path, back);
    const ShardInfo verify_info = verify_shard(path);
    EXPECT_EQ(verify_info.cache_key, read_info.cache_key);
    EXPECT_EQ(verify_info.fleet_index, read_info.fleet_index);
    EXPECT_EQ(verify_info.records, read_info.records);
    EXPECT_EQ(verify_info.totals, read_info.totals);
    EXPECT_EQ(verify_info.file_bytes, read_info.file_bytes);
    std::filesystem::remove(path);
}

TEST(ShardMutation, EveryBitFlipAndTruncationOfTheGoldenShardIsCorruption) {
    const std::string golden = golden_shard_bytes();
    ASSERT_EQ(golden.size(), 1864u);
    ASSERT_EQ(crc32(golden), 0xbe61d934u);
    const std::string path = temp_shard("mutation_golden");
    spit(path, golden);
    ASSERT_FALSE(verdict(path).has_value());

    // CRC-32 detects every single-bit error, and the header fields it does
    // not cover are checked first (magic, version) or bound the frame
    // (tags, block count), so no flip may be accepted or pass for a
    // missing file. Failures are collected, not asserted one by one.
    // Flips are poked into the file in place and truncations cut it
    // shorter step by step, which keeps 16776 scans well inside a second.
    std::vector<std::string> failures;
    const auto expect_corruption = [&](const std::string& what) {
        const std::optional<StoreErrorKind> kind = verdict(path);
        if (!kind.has_value()) {
            failures.push_back(what + ": accepted");
        } else if (*kind == StoreErrorKind::Io) {
            failures.push_back(what + ": reported as io");
        }
    };
    {
        std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
        ASSERT_TRUE(file.is_open()) << path;
        const auto poke = [&](std::size_t at, char value) {
            file.seekp(static_cast<std::streamoff>(at));
            file.put(value);
            file.flush();
            ASSERT_TRUE(file.good()) << "poke at " << at;
        };
        for (std::size_t byte = 0; byte < golden.size(); ++byte) {
            for (int bit = 0; bit < 8; ++bit) {
                poke(byte, static_cast<char>(golden[byte] ^ (1 << bit)));
                expect_corruption("flip byte " + std::to_string(byte) + " bit " +
                                  std::to_string(bit));
            }
            poke(byte, golden[byte]);
        }
    }
    ASSERT_EQ(slurp(path), golden);
    for (std::size_t length = golden.size(); length-- > 0;) {
        std::filesystem::resize_file(path, length);
        expect_corruption("truncate to " + std::to_string(length));
    }
    EXPECT_EQ(failures.size(), 0u)
        << "first: " << (failures.empty() ? std::string() : failures.front());
    std::filesystem::remove(path);
}

TEST(ShardMutation, FramesStraddlingBufferRefillsReadBackBitIdentically) {
    // Three full blocks and a partial one. Each block frame is exactly the
    // buffer's size but starts off a read boundary, so every block makes
    // the reader compact its buffer and refill it mid-frame; a 511-record
    // tail also splits the footer across two reads.
    for (const std::size_t tail : {std::size_t{1}, std::size_t{511}}) {
        const std::string path = temp_shard("mutation_straddle_" + std::to_string(tail));
        const sim::IncidentLog log = sample_log(3 * kBlockRecords + tail);
        write_shard(path, 0xc0ffee, 5, log);

        sim::IncidentLog back;
        const ShardInfo info = read_shard(path, back);
        EXPECT_EQ(info.records, log.incidents.size());
        EXPECT_EQ(info.fleet_index, 5u);
        EXPECT_EQ(info.file_bytes, std::filesystem::file_size(path));
        expect_bit_identical(log, back);
        std::filesystem::remove(path);
    }
}

TEST(ShardMutation, TrailingBytesBeyondTheFirstReadAreInconsistent) {
    // Garbage behind a multi-read shard arrives in the same read as the
    // footer's end.
    const std::string path = temp_shard("mutation_trailing");
    write_shard(path, 0xc0ffee, 0, sample_log(3 * kBlockRecords + 511));
    spit(path, slurp(path) + "junk");
    EXPECT_EQ(kind_of(path), StoreErrorKind::Inconsistent);

    // A sealed shard exactly one buffer long fills the first read to the
    // byte, so a trailing byte shows up only in the read after the footer.
    // 3 x 169 records is the writer-independent partition that lands there.
    const std::string exact = craft_shard({169, 169, 169}, 0xc0ffee);
    ASSERT_EQ(exact.size(), kLargestFrameBytes);
    spit(path, exact);
    const ShardInfo info = verify_shard(path);
    EXPECT_EQ(info.records, 507u);
    EXPECT_EQ(info.file_bytes, kLargestFrameBytes);
    spit(path, exact + "x");
    EXPECT_EQ(kind_of(path), StoreErrorKind::Inconsistent);
    std::filesystem::remove(path);
}

}  // namespace
}  // namespace qrn::store
