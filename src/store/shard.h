// Shard writer and reader: one fleet's incident log as a crash-safe,
// checksummed binary file.
//
// Writing is append-only into `<path>.tmp`; seal() writes the footer,
// flushes, and atomically renames onto the final path. A crash at any
// point therefore leaves either no file, or a `.tmp` file a reader will
// never be handed, or a fully sealed shard - never a half-written file
// under the final name. Reading streams block by block, verifying each
// CRC before any record is surfaced, and fails loudly (typed StoreError)
// on truncation, bit-flips, bad magic, version mismatches and totals that
// disagree with the records actually present. Trust is earned per block:
// a reader never returns data it has not checksummed.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "qrn/incident.h"
#include "sim/fleet.h"
#include "store/format.h"

namespace qrn::store {

/// Everything a sealed shard says about itself (header + footer).
struct ShardInfo {
    std::uint64_t cache_key = 0;    ///< Content key of the producing run.
    std::uint64_t fleet_index = 0;  ///< Position in the campaign's fleet order.
    std::uint64_t records = 0;      ///< Incident records in the shard.
    ShardTotals totals;             ///< Exposure and operational counters.
    std::uint64_t file_bytes = 0;   ///< Total bytes consumed by the reader.
};

/// What seal() just made durable. Returning this (and marking it
/// [[nodiscard]]) forces every call site to face the evidence that the
/// shard reached its final name: the record count the footer claims and
/// the bytes that were synced. Callers that track their own counts
/// cross-check against `records`; a site that drops the receipt fails the
/// -Werror build.
struct SealReceipt {
    std::uint64_t records = 0;     ///< records the sealed footer claims
    std::uint64_t file_bytes = 0;  ///< bytes written, header to footer
};

/// Append-only shard writer. Records buffer into fixed-size blocks; each
/// block is checksummed as it is flushed. The shard does not exist under
/// its final path until seal() succeeds; a writer destroyed unsealed
/// removes its temporary file.
class ShardWriter {
public:
    /// Opens `<path>.tmp` for writing and emits the header. Throws
    /// StoreError(Io) when the file cannot be created.
    ShardWriter(std::string path, std::uint64_t cache_key, std::uint64_t fleet_index);
    ~ShardWriter();

    ShardWriter(const ShardWriter&) = delete;
    ShardWriter& operator=(const ShardWriter&) = delete;

    /// Appends one record. Throws StoreError(Io) on write failure and
    /// std::logic_error when called after seal().
    void append(const Incident& incident);

    /// Flushes, writes the sealed footer and atomically renames the file
    /// onto its final path. Throws StoreError(Io) when any step fails.
    /// Returns the durability receipt; discarding it is a compiler
    /// warning, and an error in the -Werror build.
    [[nodiscard]] SealReceipt seal(const ShardTotals& totals);

private:
    void flush_block();
    void write_bytes(const std::string& bytes);

    std::string path_;
    std::string tmp_path_;
    struct Out;  ///< Keeps <fstream> out of every includer of this header.
    std::unique_ptr<Out> out_;
    std::string block_;
    std::uint32_t block_records_ = 0;
    std::uint64_t records_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t cache_key_ = 0;
    std::uint64_t fleet_index_ = 0;
    bool sealed_ = false;
};

/// Streaming shard reader. Construction validates the header;
/// for_each_block then streams the records a block at a time (each block
/// CRC-checked before its records are surfaced) and finally validates the
/// sealed footer against what was actually read. Single pass, O(block)
/// memory: the file is read through one descriptor into one buffer the
/// size of the largest legal frame, and every frame is parsed in place
/// there, so aggregation over shards never materializes a whole log.
class ShardReader {
public:
    /// Opens the shard and validates magic, version and header CRC.
    /// Throws StoreError(Io) when the file cannot be opened or read.
    explicit ShardReader(std::string path);
    ~ShardReader();

    ShardReader(const ShardReader&) = delete;
    ShardReader& operator=(const ShardReader&) = delete;

    /// Streams every record, then checks the footer. `fn` sees each
    /// CRC-checked block decoded into rows (1..kBlockRecords of them, in
    /// file order); the span points into a buffer reused across blocks, so
    /// it is valid only during the call. Throws StoreError on any defect;
    /// on success returns the shard's self-description. Consumes the
    /// reader (single pass).
    ShardInfo for_each_block(const std::function<void(std::span<const Incident>)>& fn);

private:
    [[nodiscard]] std::size_t read_some(char* into, std::size_t want);
    [[nodiscard]] std::size_t fill(std::size_t want);
    [[nodiscard]] std::string_view take(std::size_t want, std::string_view what);

    std::string path_;
    struct In;  ///< The descriptor and its frame buffer, closed on destruction.
    std::unique_ptr<In> in_;
    std::size_t begin_ = 0;  ///< First buffered byte not yet parsed.
    std::size_t end_ = 0;    ///< One past the last buffered byte.
    std::uint64_t cache_key_ = 0;
    std::uint64_t fleet_index_ = 0;
    std::uint64_t bytes_read_ = 0;
    bool consumed_ = false;
};

/// The footer totals an IncidentLog would seal with.
[[nodiscard]] ShardTotals totals_of(const sim::IncidentLog& log) noexcept;

/// Writes one fleet log as a sealed shard (records in log order). The
/// write is timed and counted through qrn_obs when metrics are armed.
void write_shard(const std::string& path, std::uint64_t cache_key,
                 std::uint64_t fleet_index, const sim::IncidentLog& log);

/// Reads a sealed shard back into an IncidentLog (bit-identical to the log
/// that was written: doubles travel as IEEE bit patterns). Throws
/// StoreError on any defect.
ShardInfo read_shard(const std::string& path, sim::IncidentLog& out);

/// Full integrity scan without materializing records.
[[nodiscard]] ShardInfo verify_shard(const std::string& path);

}  // namespace qrn::store
