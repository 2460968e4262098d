#include "store/lease.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <unistd.h>

#include "qrn/json.h"
#include "store/format.h"
#include "store/sync.h"

namespace qrn::store {

namespace {

constexpr std::string_view kLeaseKind = "qrn.lease";
constexpr std::string_view kLeaseExtension = ".lease";
/// A claimant honours at most this many of its own (at most one-day) TTLs.
constexpr std::uint64_t kHonouredTtlFactor = 4;

[[noreturn]] void throw_io(const std::string& action, const std::string& path) {
    throw StoreError(StoreErrorKind::Io,
                     action + " failed for " + path + ": " + std::strerror(errno));
}

std::string lease_json(const Lease& lease) {
    // Each json::Value is built in place inside its pair: a moved temporary
    // trips GCC 12's -Wmaybe-uninitialized at -O2.
    json::Object doc;
    doc.emplace_back("kind", std::string(kLeaseKind));
    doc.emplace_back("node", lease.node);
    doc.emplace_back("owner", lease.owner);
    // Epoch milliseconds (~2^41) and generations sit far below 2^53, so
    // the JSON-number round trip is exact.
    doc.emplace_back("acquired_ms", static_cast<std::size_t>(lease.acquired_ms));
    doc.emplace_back("ttl_ms", static_cast<std::size_t>(lease.ttl_ms));
    doc.emplace_back("generation", static_cast<std::size_t>(lease.generation));
    return json::Value(std::move(doc)).dump(2) + "\n";
}

/// Writes `lease` to a temp file unique to this process AND call (the
/// coordinator's dispatch and renewal threads both write leases), fsync'd
/// and ready to be published by link(2) or rename(2).
std::string write_lease_temp(const std::string& dir, const Lease& lease) {
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp = lease_path(dir, lease.node) + kTempSuffix.data() + "-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(counter.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            throw StoreError(StoreErrorKind::Io,
                             "cannot open '" + tmp + "' for writing");
        }
        out << lease_json(lease);
        out.flush();
        if (!out.good()) {
            throw StoreError(StoreErrorKind::Io,
                             "I/O error while writing lease temp '" + tmp + "'");
        }
    }
    sync_file(tmp);
    return tmp;
}

}  // namespace

std::uint64_t lease_now_ms() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

std::string lease_path(const std::string& dir, const std::string& node) {
    return dir + "/" + node + std::string(kLeaseExtension);
}

bool lease_expired(const Lease& lease, std::uint64_t now_ms) noexcept {
    // A window that starts more than one TTL after now was not stamped by
    // a clock this one can trust: a holder that far ahead, or a damaged
    // digit, would otherwise keep the node forever. Differences, not
    // sums, so no field value can wrap the comparison.
    if (lease.acquired_ms > now_ms) {
        return lease.acquired_ms - now_ms > lease.ttl_ms;
    }
    return now_ms - lease.acquired_ms >= lease.ttl_ms;
}

bool try_acquire_lease(const std::string& dir, const Lease& lease) {
    const std::string tmp = write_lease_temp(dir, lease);
    const std::string path = lease_path(dir, lease.node);
    // link(2) is the atomic test-and-set: it fails with EEXIST when any
    // lease file is already published, and on success the new name points
    // at bytes that were fully written and fsync'd before the publish -
    // a reader can never observe a partial lease.
    const int rc = ::link(tmp.c_str(), path.c_str());
    const int saved = errno;
    std::error_code ec;
    std::filesystem::remove(tmp, ec);  // the temp's job is done either way
    if (rc == 0) {
        sync_directory(dir);
        return true;
    }
    if (saved == EEXIST) return false;
    errno = saved;
    throw_io("link lease", path);
}

std::optional<Lease> read_lease(const std::string& dir, const std::string& node) {
    const std::optional<std::string> text = read_whole_file(lease_path(dir, node));
    if (!text) return std::nullopt;

    Lease lease;
    lease.node = node;
    try {
        const json::Value doc = json::parse(*text);
        if (doc.at("kind").as_string() != kLeaseKind ||
            doc.at("node").as_string() != node) {
            throw std::runtime_error("wrong kind or node");
        }
        const auto count = [&doc](const std::string& field) {
            const std::int64_t n = doc.at(field).as_integer();
            if (n < 0) throw std::runtime_error(field + " is negative");
            return static_cast<std::uint64_t>(n);
        };
        lease.owner = doc.at("owner").as_string();
        lease.acquired_ms = count("acquired_ms");
        lease.ttl_ms = count("ttl_ms");
        lease.generation = count("generation");
    } catch (const std::exception&) {
        // A lease that cannot be parsed was written outside the atomic
        // protocol (or hand-damaged). Correctness never depends on lease
        // content, so surface it as an expired claim: stealable.
        lease.owner = "<malformed>";
        lease.acquired_ms = 0;
        lease.ttl_ms = 0;
        lease.generation = 0;
    }
    return lease;
}

void overwrite_lease(const std::string& dir, const Lease& lease) {
    const std::string tmp = write_lease_temp(dir, lease);
    const std::string path = lease_path(dir, lease.node);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw StoreError(StoreErrorKind::Io, "cannot rename '" + tmp + "' to '" +
                                                 path + "': " + ec.message());
    }
    sync_directory(dir);
}

std::optional<LeaseClaim> claim_lease(const std::string& dir, const std::string& node,
                                      const std::string& owner, std::uint64_t ttl_ms) {
    const std::optional<Lease> current = read_lease(dir, node);
    if (!current) {
        if (!try_acquire_lease(dir, Lease{node, owner, lease_now_ms(), ttl_ms, 1})) {
            return std::nullopt;
        }
        return LeaseClaim{1, false};
    }
    // A lease stating a century-long TTL (a misconfigured peer, a damaged
    // digit) must not stall the node for good; equal peers renew at TTL/3.
    Lease judged = *current;
    judged.ttl_ms = std::min(judged.ttl_ms, ttl_ms * kHonouredTtlFactor);
    if (!lease_expired(judged, lease_now_ms())) return std::nullopt;
    const std::uint64_t generation = current->generation + 1;
    overwrite_lease(dir, Lease{node, owner, lease_now_ms(), ttl_ms, generation});
    return LeaseClaim{generation, true};
}

void release_lease(const std::string& dir, const std::string& node) {
    const std::string path = lease_path(dir, node);
    std::error_code ec;
    const bool removed = std::filesystem::remove(path, ec);
    if (ec) {
        throw StoreError(StoreErrorKind::Io, "cannot remove lease '" + path +
                                                 "': " + ec.message());
    }
    if (removed) sync_directory(dir);
}

}  // namespace qrn::store
