// The store: a directory of sealed shards that is its own index.
//
// A shard's name, fleet-<index>-<key>.qrs, says which fleet it holds under
// which content key, so one listing of the directory is the index.
// `DIR/manifest.json` is only a header ({"kind": "qrn.store",
// "schema_version": 1}) marking the directory as a store: the first
// record() into a store without one writes it, and nothing rewrites it.
// The listing is not an authority: before a shard is ever reused its
// header key is re-checked and its blocks re-checksummed, so a stray or
// copied file can cause a cache miss (re-simulation) but never a wrong
// result. A seal is an atomic rename, so any prefix of a campaign is a
// valid resume point.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "exec/guarded.h"

namespace qrn::store {

/// A sealed shard the store knows about.
struct ShardEntry {
    std::uint64_t fleet_index = 0;
    std::string file;               ///< shard_filename(fleet_index, cache_key).
    std::uint64_t cache_key = 0;
    /// From the shard's footer, set by whoever read it (check_fleet_shard,
    /// simulate_fleet_shard); the store's listing leaves both 0.
    std::uint64_t records = 0;
    double exposure_hours = 0.0;

    friend bool operator==(const ShardEntry&, const ShardEntry&) = default;
};

/// A shard store rooted at one directory. Thread-safe: campaign workers
/// record shards concurrently.
class Store {
public:
    /// Opens (creating if needed) the store directory, reads its header
    /// when one exists, and lists the directory once: a regular file whose
    /// name round-trips through shard_filename is a shard, a `*.tmp` is a
    /// stray. Throws StoreError(Io) when the directory cannot be created or
    /// listed or the header cannot be read, and StoreError(Inconsistent)
    /// when the header is not a store header.
    explicit Store(std::string dir);

    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
    [[nodiscard]] std::string manifest_path() const;  ///< The header file.

    /// True when construction found a header (i.e. this directory has been
    /// used as a store before). --resume and `qrn store` require it.
    [[nodiscard]] bool manifest_found() const noexcept { return manifest_found_; }

    /// One entry per fleet, sorted by fleet index. Throws
    /// StoreError(Inconsistent) naming both files when a fleet has two
    /// shards (a run killed between a new seal and the old shard's
    /// removal); rerunning the campaign settles it.
    [[nodiscard]] std::vector<ShardEntry> entries() const;

    /// Path of an entry's shard file (dir/file).
    [[nodiscard]] std::string shard_path(const ShardEntry& entry) const;

    /// Canonical shard file name: fleet-<index, at least 5 digits>-<16
    /// lowercase hex key>.qrs.
    [[nodiscard]] static std::string shard_filename(std::uint64_t fleet_index,
                                                    std::uint64_t cache_key);

    /// Indexes a sealed or verified shard by its fleet and key (the rest of
    /// `entry` follows from them or from the footer), deletes every other
    /// shard of that fleet, and writes the header when the store has none;
    /// nothing else touches the disk. Safe to call from
    /// parallel campaign workers. Throws StoreError(Io) when a superseded
    /// shard cannot be removed or the header cannot be written.
    void record(const ShardEntry& entry);

    /// The `*.tmp` files the opening listing found (sorted): interrupted
    /// writes, never trusted as shards.
    [[nodiscard]] const std::vector<std::string>& stray_temp_files() const {
        return stray_;
    }

private:
    struct Index {
        std::set<std::pair<std::uint64_t, std::uint64_t>> shards;  ///< (fleet, key)
        bool header_on_disk = false;
    };

    std::string dir_;
    bool manifest_found_ = false;
    std::vector<std::string> stray_;
    mutable exec::Guarded<Index> index_;
};

}  // namespace qrn::store
