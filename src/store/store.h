// The store: a directory of sealed shards plus a JSON manifest.
//
// `DIR/manifest.json` indexes every sealed shard by fleet index and
// content key. The manifest is a cache index, not an authority: before a
// shard is ever reused its header key is re-checked and its blocks are
// re-checksummed, so a stale or hand-edited manifest can cause a cache
// miss (re-simulation) but never a wrong result. The manifest itself is
// rewritten atomically (temp + rename) after every recorded shard that
// changes a row, which makes any prefix of a campaign a valid resume
// point.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace qrn::store {

/// One manifest row: a sealed shard the store knows about.
struct ShardEntry {
    std::uint64_t fleet_index = 0;
    std::string file;               ///< File name relative to the store dir.
    std::uint64_t cache_key = 0;
    std::uint64_t records = 0;      ///< Incident records (from the footer).
    double exposure_hours = 0.0;    ///< Exposure (informational; footer rules).

    friend bool operator==(const ShardEntry&, const ShardEntry&) = default;
};

/// A shard store rooted at one directory. Thread-safe: campaign workers
/// record shards concurrently; each record() rewrites the manifest under a
/// lock so the on-disk index is always a consistent snapshot.
class Store {
public:
    /// Opens (creating if needed) the store directory and loads the
    /// manifest when one exists. Throws StoreError(Io) when the directory
    /// cannot be created or the manifest cannot be read, and
    /// StoreError(Inconsistent) when the manifest is not a store manifest.
    explicit Store(std::string dir);

    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
    [[nodiscard]] std::string manifest_path() const;

    /// True when construction found an existing manifest (i.e. this
    /// directory has been used as a store before). --resume requires it.
    [[nodiscard]] bool manifest_found() const noexcept { return manifest_found_; }

    /// The entry for a fleet, or nullptr when the store has none.
    [[nodiscard]] const ShardEntry* find(std::uint64_t fleet_index) const;

    /// All entries, sorted by fleet index.
    [[nodiscard]] std::vector<ShardEntry> entries() const;

    /// Absolute-ish path of an entry's shard file (dir/file).
    [[nodiscard]] std::string shard_path(const ShardEntry& entry) const;

    /// Canonical shard file name: fleet-<5-digit index>-<16-hex key>.qrs.
    [[nodiscard]] static std::string shard_filename(std::uint64_t fleet_index,
                                                    std::uint64_t cache_key);

    /// Upserts an entry and atomically rewrites the manifest; recording a
    /// row the manifest already holds unchanged writes nothing. Safe to
    /// call from parallel campaign workers. Throws StoreError(Io) when the
    /// manifest cannot be written.
    void record(const ShardEntry& entry);

    /// Leftover `*.tmp` files from interrupted writes (sorted). These are
    /// never trusted as shards; inspect reports them so operators know a
    /// previous run died mid-write.
    [[nodiscard]] std::vector<std::string> stray_temp_files() const;

private:
    void load_manifest();
    void write_manifest_locked() const;

    std::string dir_;
    mutable std::mutex mutex_;
    std::map<std::uint64_t, ShardEntry> entries_;
    bool manifest_found_ = false;
};

}  // namespace qrn::store
