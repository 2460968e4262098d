#include "store/store.h"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <optional>

#include "qrn/json.h"
#include "store/cache_key.h"
#include "store/format.h"
#include "store/sync.h"

namespace qrn::store {

namespace {

constexpr std::string_view kManifestName = "manifest.json";
constexpr std::string_view kShardPrefix = "fleet-";
/// The header this build writes, recognised by its bytes. Any other text
/// (such as a manifest with the per-shard rows older builds kept) is
/// parsed, and only its kind and version are read.
constexpr std::string_view kHeader = "{\"kind\": \"qrn.store\", \"schema_version\": 1}\n";

/// Reads the header at `path`; false when there is none.
bool read_header(const std::string& path) {
    const std::optional<std::string> text = read_whole_file(path);
    if (!text) return false;
    if (*text == kHeader) return true;
    std::string kind;
    std::int64_t version = 0;
    try {
        const json::Value doc = json::parse(*text);
        kind = doc.at("kind").as_string();
        version = doc.at("schema_version").as_integer();
    } catch (const std::exception& e) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         "store manifest '" + path + "' is malformed: " + e.what());
    }
    if (kind != "qrn.store" || version != 1) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         "'" + path + "' is not a version 1 store manifest (kind '" +
                             kind + "', schema version " + std::to_string(version) + ")");
    }
    return true;
}

void write_header(const std::string& path) {
    const std::string tmp = path + std::string(kTempSuffix);
    {
        std::ofstream out(tmp, std::ios::trunc);
        out << kHeader;
        out.flush();
        if (!out.good()) {
            throw StoreError(StoreErrorKind::Io, "cannot write store manifest '" + tmp + "'");
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw StoreError(StoreErrorKind::Io, "cannot rename '" + tmp + "' to '" +
                                                 path + "': " + ec.message());
    }
}

/// The (fleet index, key) a shard file name spells, or nullopt unless
/// shard_filename would spell exactly `name` for them.
std::optional<std::pair<std::uint64_t, std::uint64_t>> parse_shard_filename(
    std::string_view name) {
    // ".qrs" holds no '-', so a dash found here lies before the extension.
    const std::size_t dash = name.find('-', kShardPrefix.size());
    if (dash == std::string_view::npos || !name.ends_with(kShardExtension)) {
        return std::nullopt;
    }
    // A parse that fails or stops early leaves a value whose canonical
    // name differs from `name`, so the round trip below rejects it.
    std::uint64_t index = 0;
    std::uint64_t key = 0;
    (void)std::from_chars(name.data() + kShardPrefix.size(), name.data() + dash, index);
    (void)std::from_chars(name.data() + dash + 1,
                          name.data() + name.size() - kShardExtension.size(), key, 16);
    if (Store::shard_filename(index, key) != name) return std::nullopt;
    return std::pair{index, key};
}

}  // namespace

Store::Store(std::string dir) : dir_(std::move(dir)) {
    if (dir_.empty()) {
        throw StoreError(StoreErrorKind::Io, "store directory path is empty");
    }
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        throw StoreError(StoreErrorKind::Io, "cannot create store directory '" +
                                                 dir_ + "': " + ec.message());
    }
    manifest_found_ = read_header(manifest_path());

    const auto index = index_.lock();
    index->header_on_disk = manifest_found_;
    std::filesystem::directory_iterator it(dir_, ec);
    for (; !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
        // The type comes from the listing itself; only a symlink costs a
        // stat, and a dangling one is simply not a shard.
        std::error_code type_ec;
        if (!it->is_regular_file(type_ec)) continue;
        const std::string_view path = it->path().native();
        const std::string_view name = path.substr(path.rfind('/') + 1);
        if (const auto shard = parse_shard_filename(name)) {
            index->shards.insert(*shard);
        } else if (name.size() > kTempSuffix.size() && name.ends_with(kTempSuffix)) {
            stray_.emplace_back(name);
        }
    }
    if (ec) {
        throw StoreError(StoreErrorKind::Io, "cannot list store directory '" + dir_ +
                                                 "': " + ec.message());
    }
    std::sort(stray_.begin(), stray_.end());
}

std::string Store::manifest_path() const {
    return dir_ + "/" + std::string(kManifestName);
}

std::vector<ShardEntry> Store::entries() const {
    const auto index = index_.lock();
    std::vector<ShardEntry> out;
    out.reserve(index->shards.size());
    for (const auto& [fleet, key] : index->shards) {
        ShardEntry entry{fleet, shard_filename(fleet, key), key};
        if (!out.empty() && out.back().fleet_index == fleet) {
            throw StoreError(StoreErrorKind::Inconsistent,
                             "store '" + dir_ + "' holds two shards of fleet " +
                                 std::to_string(fleet) + ": " + out.back().file +
                                 " and " + entry.file + "; rerun the campaign to keep one");
        }
        out.push_back(std::move(entry));
    }
    return out;
}

std::string Store::shard_path(const ShardEntry& entry) const {
    return dir_ + "/" + entry.file;
}

std::string Store::shard_filename(std::uint64_t fleet_index, std::uint64_t cache_key) {
    std::string digits = std::to_string(fleet_index);
    if (digits.size() < 5) digits.insert(0, 5 - digits.size(), '0');
    return std::string(kShardPrefix) + digits + "-" + key_hex(cache_key) +
           std::string(kShardExtension);
}

void Store::record(const ShardEntry& entry) {
    const auto index = index_.lock();
    // The new shard is sealed, so any other shard of its fleet is stale.
    auto it = index->shards.lower_bound({entry.fleet_index, 0});
    while (it != index->shards.end() && it->first == entry.fleet_index) {
        if (it->second == entry.cache_key) {
            ++it;
            continue;
        }
        const std::string stale = dir_ + "/" + shard_filename(it->first, it->second);
        std::error_code ec;
        std::filesystem::remove(stale, ec);
        if (ec) {
            throw StoreError(StoreErrorKind::Io, "cannot remove superseded shard '" +
                                                     stale + "': " + ec.message());
        }
        it = index->shards.erase(it);
    }
    index->shards.insert({entry.fleet_index, entry.cache_key});  // no-op when listed
    if (!index->header_on_disk) {
        write_header(manifest_path());
        index->header_on_disk = true;
    }
}

}  // namespace qrn::store
