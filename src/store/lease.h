// Lease files: the claim/steal primitive of the distributed scheduler.
//
// A lease is a small JSON file that marks one DAG node as "being worked
// on" by one owner until a deadline. Acquisition is atomic and exclusive
// (a fully-written temp file published with link(2), which fails when the
// lease already exists - no partial lease is ever visible); stealing and
// renewal atomically REPLACE the file (temp + fsync + rename, the same
// durability order ShardWriter::seal uses) and bump its generation.
//
// Leases are an efficiency device, not a correctness device: they keep two
// workers from simulating the same fleet at the same time, but the system
// stays correct if they fail to - a DAG node is "done" if and only if its
// sealed shard verifies clean in the store, node outputs are pure
// functions of the campaign plan, and shard sealing is itself an atomic
// rename, so duplicate execution produces byte-identical bytes under the
// same name. That is why expiry can be judged on wall clocks: a stale
// clock costs duplicated work, never a wrong result (docs/DISTRIBUTED.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace qrn::store {

/// One lease file's contents.
struct Lease {
    std::string node;              ///< DAG node id, e.g. "fleet-00042".
    std::string owner;             ///< "<host>:<pid>:<role>"; informational.
    std::uint64_t acquired_ms = 0; ///< Unix epoch ms at acquire/renew time.
    std::uint64_t ttl_ms = 0;      ///< Validity window from acquired_ms.
    std::uint64_t generation = 0;  ///< Bumped by every steal and renewal.
};

/// Unix epoch milliseconds from the system clock - the timebase every
/// lease field uses. Cross-machine skew shortens or stretches windows;
/// pick TTLs generous against it.
[[nodiscard]] std::uint64_t lease_now_ms() noexcept;

/// `dir/<node>.lease`.
[[nodiscard]] std::string lease_path(const std::string& dir,
                                     const std::string& node);

/// True when the lease's window has elapsed at `now_ms`, or when it
/// starts more than one TTL after `now_ms`: a holder whose clock runs
/// ahead by less than one TTL is still deferred to, one further ahead is
/// not.
[[nodiscard]] bool lease_expired(const Lease& lease,
                                 std::uint64_t now_ms) noexcept;

/// Atomically acquires `lease.node`: writes the full lease to a unique
/// temp file, fsyncs it, then publishes it with link(2) - which fails
/// (returning false) when any lease file already exists, expired or not.
/// On success the directory entry is fsync'd before returning. Throws
/// StoreError(Io) on anything but "already leased".
[[nodiscard]] bool try_acquire_lease(const std::string& dir, const Lease& lease);

/// Reads a node's lease. Returns nullopt when no lease file exists. A
/// file that cannot be parsed (torn by a dying writer outside the atomic
/// protocol, or hand-edited) is returned as a zero-TTL lease with owner
/// "<malformed>": always expired, therefore stealable.
[[nodiscard]] std::optional<Lease> read_lease(const std::string& dir,
                                              const std::string& node);

/// Steal or renew: atomically replaces the node's lease file (temp +
/// fsync + rename + directory fsync) with `lease` as written - callers
/// bump `generation` and set `acquired_ms`/`owner` for their case. Unlike
/// try_acquire_lease this succeeds whether or not a lease exists. Throws
/// StoreError(Io) on failure.
void overwrite_lease(const std::string& dir, const Lease& lease);

/// A lease the caller now holds.
struct LeaseClaim {
    std::uint64_t generation = 0;  ///< Generation written for the caller.
    bool stolen = false;           ///< Taken over from an expired holder.
};

/// The scheduler's one claim policy, shared by the coordinator and the
/// standalone workers. Reads the node's lease, then:
///  - none: acquires it (generation 1), unless a peer wins the race;
///  - expired or `<malformed>`: steals it (generation + 1);
///  - live: defers to its holder.
/// Expiry is judged with min(lease.ttl_ms, 4 x `ttl_ms`), whatever the lease states.
/// Returns the claim, or nullopt when the caller must leave the node to
/// someone else for now. Two stealers racing on one expired lease both
/// win; duplicate execution is benign (deterministic bytes, atomic seal).
/// Throws StoreError(Io) as the primitives above do.
[[nodiscard]] std::optional<LeaseClaim> claim_lease(const std::string& dir,
                                                    const std::string& node,
                                                    const std::string& owner,
                                                    std::uint64_t ttl_ms);

/// Removes a node's lease and fsyncs the directory. A lease that is
/// already gone is not an error (release after steal is a benign race).
void release_lease(const std::string& dir, const std::string& node);

}  // namespace qrn::store
