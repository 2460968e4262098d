#include "store/store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "qrn/json.h"
#include "store/cache_key.h"
#include "store/format.h"

namespace qrn::store {

namespace {

constexpr int kManifestSchemaVersion = 1;
constexpr std::string_view kManifestKind = "qrn.store";
constexpr std::string_view kManifestName = "manifest.json";

/// Fleet indices and record counts live in JSON numbers (doubles); both
/// are bounded far below 2^53 in practice, so the round trip is exact.
/// A fraction, a negative or an out-of-range number is a damaged row.
std::uint64_t entry_u64(const json::Value& value, const std::string& what) {
    try {
        const std::int64_t n = value.as_integer();
        if (n >= 0) return static_cast<std::uint64_t>(n);
    } catch (const std::runtime_error& e) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         "manifest field '" + what + "': " + e.what());
    }
    throw StoreError(StoreErrorKind::Inconsistent,
                     "manifest field '" + what + "' is negative");
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
    load_manifest();
}

std::string Store::manifest_path() const {
    return dir_ + "/" + std::string(kManifestName);
}

void Store::load_manifest() {
    const std::string path = manifest_path();
    std::ifstream in(path);
    if (!in) {
        std::error_code ec;
        if (std::filesystem::exists(path, ec)) {
            throw StoreError(StoreErrorKind::Io,
                             "store manifest '" + path + "' exists but cannot be read");
        }
        return;  // Fresh store: no manifest yet.
    }
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad()) {
        throw StoreError(StoreErrorKind::Io,
                         "I/O error while reading store manifest '" + path + "'");
    }

    json::Value doc;
    try {
        doc = json::parse(text.str());
    } catch (const std::exception& e) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         "store manifest '" + path + "' is not valid JSON: " + e.what());
    }
    try {
        if (doc.at("kind").as_string() != kManifestKind) {
            throw StoreError(StoreErrorKind::Inconsistent,
                             "'" + path + "' is not a store manifest (kind '" +
                                 doc.at("kind").as_string() + "')");
        }
        const auto version = entry_u64(doc.at("schema_version"), "schema_version");
        if (version != kManifestSchemaVersion) {
            throw StoreError(StoreErrorKind::Inconsistent,
                             "store manifest '" + path + "' has schema version " +
                                 std::to_string(version) + "; this build reads " +
                                 std::to_string(kManifestSchemaVersion));
        }
        for (const json::Value& row : doc.at("shards").as_array()) {
            ShardEntry entry;
            entry.fleet_index = entry_u64(row.at("fleet_index"), "fleet_index");
            entry.file = row.at("file").as_string();
            entry.cache_key = key_from_hex(row.at("key").as_string());
            entry.records = entry_u64(row.at("records"), "records");
            entry.exposure_hours = row.at("exposure_hours").as_number();
            if (entry.file.empty() || entry.file.find('/') != std::string::npos) {
                throw StoreError(StoreErrorKind::Inconsistent,
                                 "store manifest '" + path +
                                     "' names an invalid shard file '" + entry.file + "'");
            }
            entries_[entry.fleet_index] = std::move(entry);
        }
    } catch (const StoreError&) {
        throw;
    } catch (const std::exception& e) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         "store manifest '" + path + "' is malformed: " + e.what());
    }
    manifest_found_ = true;
}

void Store::write_manifest_locked() const {
    json::Array shards;
    shards.reserve(entries_.size());
    for (const auto& [index, entry] : entries_) {
        // Each json::Value is built in place inside its pair: no temporary
        // is moved, which is also what keeps GCC 12's -Wmaybe-uninitialized
        // quiet at -O2 about the variant move.
        json::Object row;
        row.emplace_back("fleet_index", static_cast<std::size_t>(index));
        row.emplace_back("file", entry.file);
        row.emplace_back("key", key_hex(entry.cache_key));
        row.emplace_back("records", static_cast<std::size_t>(entry.records));
        row.emplace_back("exposure_hours", entry.exposure_hours);
        shards.emplace_back(std::move(row));
    }
    json::Object doc;
    doc.emplace_back("kind", std::string(kManifestKind));
    doc.emplace_back("schema_version", kManifestSchemaVersion);
    doc.emplace_back("shards", std::move(shards));

    const std::string path = manifest_path();
    const std::string tmp = path + std::string(kTempSuffix);
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            throw StoreError(StoreErrorKind::Io,
                             "cannot open '" + tmp + "' for writing");
        }
        out << json::Value(std::move(doc)).dump(2) << '\n';
        out.flush();
        if (!out.good()) {
            throw StoreError(StoreErrorKind::Io,
                             "I/O error while writing store manifest '" + tmp + "'");
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw StoreError(StoreErrorKind::Io, "cannot rename '" + tmp + "' to '" +
                                                 path + "': " + ec.message());
    }
}

const ShardEntry* Store::find(std::uint64_t fleet_index) const {
    const std::scoped_lock lock(mutex_);
    const auto it = entries_.find(fleet_index);
    return it == entries_.end() ? nullptr : &it->second;
}

std::vector<ShardEntry> Store::entries() const {
    const std::scoped_lock lock(mutex_);
    std::vector<ShardEntry> out;
    out.reserve(entries_.size());
    for (const auto& [index, entry] : entries_) out.push_back(entry);
    return out;
}

std::string Store::shard_path(const ShardEntry& entry) const {
    return dir_ + "/" + entry.file;
}

std::string Store::shard_filename(std::uint64_t fleet_index, std::uint64_t cache_key) {
    std::string digits = std::to_string(fleet_index);
    if (digits.size() < 5) digits.insert(0, 5 - digits.size(), '0');
    return "fleet-" + digits + "-" + key_hex(cache_key) + std::string(kShardExtension);
}

void Store::record(const ShardEntry& entry) {
    const std::scoped_lock lock(mutex_);
    // Reused shards and the coordinator's resume sweep record every row
    // they find; rewriting an unchanged manifest would make that quadratic.
    const auto it = entries_.find(entry.fleet_index);
    if (it != entries_.end() && it->second == entry) return;
    entries_[entry.fleet_index] = entry;
    write_manifest_locked();
}

std::vector<std::string> Store::stray_temp_files() const {
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& item : std::filesystem::directory_iterator(dir_, ec)) {
        if (!item.is_regular_file(ec)) continue;
        const std::string name = item.path().filename().string();
        if (name.size() > kTempSuffix.size() &&
            name.ends_with(kTempSuffix)) {
            out.push_back(name);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace qrn::store
