#include "store/shard.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.h"
#include "store/crc32.h"
#include "store/sync.h"

namespace qrn::store {

namespace {

/// Header layout: magic(8) version(4) flags(4) key(8) fleet(8) crc(4).
constexpr std::size_t kHeaderPayloadBytes = 32;
constexpr std::size_t kHeaderBytes = kHeaderPayloadBytes + 4;
/// Footer payload: records(8) exposure(8) six counters(48) key(8) = 72.
constexpr std::size_t kFooterPayloadBytes = 72;

[[nodiscard]] std::string encode_footer_payload(std::uint64_t records,
                                                const ShardTotals& totals,
                                                std::uint64_t cache_key) {
    std::string payload;
    payload.reserve(kFooterPayloadBytes);
    put_u64(payload, records);
    put_f64(payload, totals.exposure_hours);
    put_u64(payload, totals.encounters);
    put_u64(payload, totals.emergency_brakings);
    put_u64(payload, totals.degraded_hours);
    put_u64(payload, totals.odd_exits);
    put_u64(payload, totals.mrm_executions);
    put_u64(payload, totals.unmonitored_exits);
    put_u64(payload, cache_key);
    return payload;
}

}  // namespace

// ---- writer ------------------------------------------------------------

struct ShardWriter::Out {
    std::ofstream stream;
};

ShardWriter::ShardWriter(std::string path, std::uint64_t cache_key,
                         std::uint64_t fleet_index)
    : path_(std::move(path)),
      tmp_path_(path_ + std::string(kTempSuffix)),
      out_(std::make_unique<Out>()),
      cache_key_(cache_key),
      fleet_index_(fleet_index) {
    out_->stream.open(tmp_path_, std::ios::binary | std::ios::trunc);
    if (!out_->stream) {
        throw StoreError(StoreErrorKind::Io, "cannot create " + tmp_path_);
    }
    std::string header;
    header.reserve(kHeaderBytes);
    header.append(kShardMagic);
    put_u32(header, kShardVersion);
    put_u32(header, 0);  // reserved flags
    put_u64(header, cache_key_);
    put_u64(header, fleet_index_);
    put_u32(header, crc32(header));
    write_bytes(header);
}

ShardWriter::~ShardWriter() {
    if (!sealed_) {
        // Interrupted write: close and drop the temporary so no partial
        // file survives under any name. Errors are deliberately ignored -
        // a destructor must not throw and the .tmp suffix already marks
        // the file as untrusted.
        out_->stream.close();
        std::error_code ignored;
        std::filesystem::remove(tmp_path_, ignored);
    }
}

void ShardWriter::write_bytes(const std::string& bytes) {
    out_->stream.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out_->stream) {
        throw StoreError(StoreErrorKind::Io, "write failed for " + tmp_path_);
    }
    bytes_ += bytes.size();
}

void ShardWriter::append(const Incident& incident) {
    if (sealed_) {
        throw std::logic_error("ShardWriter::append: shard already sealed");
    }
    encode_record(block_, incident);
    ++block_records_;
    ++records_;
    if (block_records_ == kBlockRecords) flush_block();
}

void ShardWriter::flush_block() {
    if (block_records_ == 0) return;
    std::string framed;
    framed.reserve(8 + block_.size() + 4);
    put_u32(framed, kBlockTag);
    put_u32(framed, block_records_);
    framed.append(block_);
    put_u32(framed, crc32(block_));
    write_bytes(framed);
    block_.clear();
    block_records_ = 0;
}

SealReceipt ShardWriter::seal(const ShardTotals& totals) {
    if (sealed_) {
        throw std::logic_error("ShardWriter::seal: shard already sealed");
    }
    flush_block();
    std::string footer;
    footer.reserve(4 + kFooterPayloadBytes + 4);
    put_u32(footer, kFooterTag);
    const std::string payload = encode_footer_payload(records_, totals, cache_key_);
    footer.append(payload);
    put_u32(footer, crc32(payload));
    write_bytes(footer);
    out_->stream.flush();
    if (!out_->stream) {
        throw StoreError(StoreErrorKind::Io, "flush failed for " + tmp_path_);
    }
    out_->stream.close();
    // Durability order matters: the temp file's bytes must be on stable
    // storage BEFORE the rename publishes the final name (else a crash can
    // leave a fully-named shard with torn contents), and the directory
    // entry the rename creates must be synced AFTER (else the shard can
    // vanish from the directory even though its bytes survived).
    sync_file(tmp_path_);
    std::error_code rename_error;
    std::filesystem::rename(tmp_path_, path_, rename_error);
    if (rename_error) {
        throw StoreError(StoreErrorKind::Io, "cannot rename " + tmp_path_ +
                                                 " to " + path_ + ": " +
                                                 rename_error.message());
    }
    const std::string parent =
        std::filesystem::path(path_).parent_path().string();
    sync_directory(parent.empty() ? "." : parent);
    sealed_ = true;
    if (obs::enabled()) {
        obs::add_counter("store.shards_written", 1);
        obs::add_counter("store.records_written", records_);
        obs::add_counter("store.bytes_written", bytes_);
    }
    return SealReceipt{records_, bytes_};
}

// ---- reader ------------------------------------------------------------

namespace {

/// The read buffer holds exactly the largest legal frame: a full block
/// (tag, count, kBlockRecords records, CRC). Every frame - header (36
/// bytes), block, footer (80) - therefore fits whole and is parsed where
/// it lies, and memory stays O(block) however long the shard is.
constexpr std::size_t kBufferBytes = 8 + std::size_t{kBlockRecords} * kRecordBytes + 4;
static_assert(kBufferBytes == 8 + 512 * 28 + 4,
              "the shard read buffer must equal the largest legal frame");
static_assert(kHeaderBytes <= kBufferBytes && 4 + kFooterPayloadBytes + 4 <= kBufferBytes);

}  // namespace

struct ShardReader::In {
    int fd = -1;
    std::array<char, kBufferBytes> bytes;  ///< Written by read() before any use.

    In() = default;
    In(const In&) = delete;
    In& operator=(const In&) = delete;
    ~In() {
        if (fd >= 0) ::close(fd);
    }
};

ShardReader::ShardReader(std::string path)
    // for_overwrite: the buffer is only ever read after read() filled it.
    : path_(std::move(path)), in_(std::make_unique_for_overwrite<In>()) {
    in_->fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
    if (in_->fd < 0) {
        throw StoreError(StoreErrorKind::Io, "cannot open " + path_);
    }
    const std::string_view header = take(kHeaderBytes, "header");
    if (header.substr(0, kShardMagic.size()) != kShardMagic) {
        throw StoreError(StoreErrorKind::BadMagic,
                         path_ + ": not a qrn-store shard (bad magic)");
    }
    const std::uint32_t version = get_u32(header, 8);
    if (version != kShardVersion) {
        throw StoreError(StoreErrorKind::BadVersion,
                         path_ + ": shard format version " +
                             std::to_string(version) + ", this build reads " +
                             std::to_string(kShardVersion));
    }
    const std::uint32_t stored_crc = get_u32(header, kHeaderPayloadBytes);
    const std::uint32_t actual_crc = crc32(header.substr(0, kHeaderPayloadBytes));
    if (stored_crc != actual_crc) {
        throw StoreError(StoreErrorKind::Checksum,
                         path_ + ": header checksum mismatch");
    }
    cache_key_ = get_u64(header, 16);
    fleet_index_ = get_u64(header, 24);
}

ShardReader::~ShardReader() = default;

std::size_t ShardReader::read_some(char* into, std::size_t want) {
    for (;;) {
        const ssize_t got = ::read(in_->fd, into, want);
        if (got >= 0) {
            bytes_read_ += static_cast<std::uint64_t>(got);
            return static_cast<std::size_t>(got);
        }
        if (errno != EINTR) {
            throw StoreError(StoreErrorKind::Io, "read failed for " + path_);
        }
    }
}

std::size_t ShardReader::fill(std::size_t want) {
    if (end_ - begin_ < want) {
        // Slide the unparsed tail to the front and read behind it until
        // the frame is whole or the file ends; want <= kBufferBytes.
        std::memmove(in_->bytes.data(), in_->bytes.data() + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
        while (end_ < want) {
            const std::size_t got =
                read_some(in_->bytes.data() + end_, in_->bytes.size() - end_);
            if (got == 0) break;
            end_ += got;
        }
    }
    return std::min(end_ - begin_, want);
}

std::string_view ShardReader::take(std::size_t want, std::string_view what) {
    const std::size_t got = fill(want);
    if (got != want) {
        throw StoreError(StoreErrorKind::Truncated,
                         path_ + ": unexpected end of file inside " +
                             std::string(what) + " (wanted " +
                             std::to_string(want) + " bytes, got " +
                             std::to_string(got) + "); the shard was never "
                             "sealed or has been cut short");
    }
    const std::string_view bytes(in_->bytes.data() + begin_, want);
    begin_ += want;
    return bytes;
}

ShardInfo ShardReader::for_each_block(
    const std::function<void(std::span<const Incident>)>& fn) {
    if (consumed_) {
        throw std::logic_error("ShardReader::for_each_block: reader already consumed");
    }
    consumed_ = true;
    const obs::ScopedTimer timer("store.shard_read_ns");
    try {
        std::uint64_t records = 0;
        // One row buffer reused for every block: its capacity settles at
        // kBlockRecords and the scan allocates nothing further.
        std::vector<Incident> rows;
        for (;;) {
            const std::size_t got = fill(4);
            if (got == 0) {
                throw StoreError(StoreErrorKind::Truncated,
                                 path_ + ": end of file before the sealed "
                                         "footer; the writing run was "
                                         "interrupted");
            }
            if (got != 4) {
                throw StoreError(StoreErrorKind::Truncated,
                                 path_ + ": torn frame tag at end of file");
            }
            // A view from take() points into the buffer and dies with the
            // next fill(): every field is decoded before reading on.
            const std::uint32_t tag = get_u32(take(4, "frame tag"), 0);
            if (tag == kBlockTag) {
                const std::uint32_t count = get_u32(take(4, "block header"), 0);
                if (count == 0 || count > kBlockRecords) {
                    throw StoreError(StoreErrorKind::Inconsistent,
                                     path_ + ": block claims " +
                                         std::to_string(count) +
                                         " records (valid range is 1.." +
                                         std::to_string(kBlockRecords) + ")");
                }
                const std::string_view block =
                    take(static_cast<std::size_t>(count) * kRecordBytes + 4,
                         "record block");
                const std::string_view payload = block.substr(0, block.size() - 4);
                const std::uint32_t stored = get_u32(block, block.size() - 4);
                if (stored != crc32(payload)) {
                    throw StoreError(StoreErrorKind::Checksum,
                                     path_ + ": block checksum mismatch "
                                             "(bit rot or torn write)");
                }
                rows.clear();
                rows.reserve(count);
                for (std::uint32_t r = 0; r < count; ++r) {
                    rows.push_back(decode_record(
                        payload, static_cast<std::size_t>(r) * kRecordBytes, path_));
                }
                fn(rows);
                records += count;
                continue;
            }
            if (tag == kFooterTag) {
                const std::string_view footer = take(kFooterPayloadBytes + 4, "footer");
                const std::string_view payload = footer.substr(0, kFooterPayloadBytes);
                const std::uint32_t stored = get_u32(footer, kFooterPayloadBytes);
                if (stored != crc32(payload)) {
                    throw StoreError(StoreErrorKind::Checksum,
                                     path_ + ": footer checksum mismatch");
                }
                ShardInfo info;
                info.cache_key = cache_key_;
                info.fleet_index = fleet_index_;
                info.records = get_u64(payload, 0);
                info.totals.exposure_hours = get_f64(payload, 8);
                info.totals.encounters = get_u64(payload, 16);
                info.totals.emergency_brakings = get_u64(payload, 24);
                info.totals.degraded_hours = get_u64(payload, 32);
                info.totals.odd_exits = get_u64(payload, 40);
                info.totals.mrm_executions = get_u64(payload, 48);
                info.totals.unmonitored_exits = get_u64(payload, 56);
                const std::uint64_t footer_key = get_u64(payload, 64);
                if (info.records != records) {
                    throw StoreError(
                        StoreErrorKind::Inconsistent,
                        path_ + ": footer claims " + std::to_string(info.records) +
                            " records but " + std::to_string(records) +
                            " were present");
                }
                if (footer_key != cache_key_) {
                    throw StoreError(StoreErrorKind::Inconsistent,
                                     path_ + ": footer cache key disagrees "
                                             "with the header");
                }
                if (!std::isfinite(info.totals.exposure_hours) ||
                    info.totals.exposure_hours < 0.0) {
                    throw StoreError(StoreErrorKind::Inconsistent,
                                     path_ + ": footer exposure is not a "
                                             "finite non-negative number");
                }
                // Sealed means the footer ends the file: nothing may remain
                // buffered, and one more read must report end of file.
                if (begin_ != end_ || read_some(in_->bytes.data(), 1) != 0) {
                    throw StoreError(StoreErrorKind::Inconsistent,
                                     path_ + ": trailing bytes after the "
                                             "sealed footer");
                }
                info.file_bytes = bytes_read_;
                if (obs::enabled()) {
                    obs::add_counter("store.shards_read", 1);
                    obs::add_counter("store.records_read", info.records);
                    obs::add_counter("store.bytes_read", info.file_bytes);
                }
                return info;
            }
            throw StoreError(StoreErrorKind::Inconsistent,
                             path_ + ": unrecognized frame tag (file damaged "
                                     "or not a shard)");
        }
    } catch (const StoreError& error) {
        if (error.is_corruption() && obs::enabled()) {
            obs::add_counter("store.checksum_failures", 1);
        }
        throw;
    }
}

// ---- log-level convenience ---------------------------------------------

ShardTotals totals_of(const sim::IncidentLog& log) noexcept {
    ShardTotals totals;
    totals.exposure_hours = log.exposure.hours();
    totals.encounters = log.encounters;
    totals.emergency_brakings = log.emergency_brakings;
    totals.degraded_hours = log.degraded_hours;
    totals.odd_exits = log.odd_exits;
    totals.mrm_executions = log.mrm_executions;
    totals.unmonitored_exits = log.unmonitored_exits;
    return totals;
}

void write_shard(const std::string& path, std::uint64_t cache_key,
                 std::uint64_t fleet_index, const sim::IncidentLog& log) {
    const obs::ScopedTimer timer("store.shard_write_ns");
    ShardWriter writer(path, cache_key, fleet_index);
    for (const Incident& incident : log.incidents) writer.append(incident);
    const SealReceipt receipt = writer.seal(totals_of(log));
    if (receipt.records != log.incidents.size()) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         path + ": sealed " + std::to_string(receipt.records) +
                             " records but the log holds " +
                             std::to_string(log.incidents.size()));
    }
}

ShardInfo read_shard(const std::string& path, sim::IncidentLog& out) {
    ShardReader reader(path);
    sim::IncidentLog log;
    // Every record takes kRecordBytes of the file, so its size bounds the
    // record count from above: one allocation instead of a growth series.
    std::error_code size_error;
    const std::uintmax_t file_bytes = std::filesystem::file_size(path, size_error);
    if (!size_error) log.incidents.reserve(file_bytes / kRecordBytes);
    const ShardInfo info = reader.for_each_block([&log](std::span<const Incident> block) {
        log.incidents.insert(log.incidents.end(), block.begin(), block.end());
    });
    log.exposure = ExposureHours(info.totals.exposure_hours);
    log.encounters = info.totals.encounters;
    log.emergency_brakings = info.totals.emergency_brakings;
    log.degraded_hours = info.totals.degraded_hours;
    log.odd_exits = info.totals.odd_exits;
    log.mrm_executions = info.totals.mrm_executions;
    log.unmonitored_exits = info.totals.unmonitored_exits;
    out = std::move(log);
    return info;
}

ShardInfo verify_shard(const std::string& path) {
    ShardReader reader(path);
    return reader.for_each_block([](std::span<const Incident>) {});
}

}  // namespace qrn::store
