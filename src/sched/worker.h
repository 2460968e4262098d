// Scheduler workers: the processes that execute fleet nodes of a
// distributed campaign.
//
// Two modes share one execution path (store::simulate_fleet_shard, the
// same function behind the local cache-miss branch, so shard bytes never
// depend on which process sealed them):
//
//  - *Attached* (`qrn sched worker --attached`): spawned by the
//    coordinator with a pipe on stdin/stdout. Reads "run <node-id>" lines,
//    replies "ok <node-id>" or "fail <node-id> <reason>", exits cleanly on
//    stdin EOF. The coordinator owns all leases in this mode.
//
//  - *Standalone* (`qrn sched worker --store DIR`): launched externally
//    against a store whose plan the coordinator already wrote. Claims
//    fleet nodes itself through the coordinator's claim loop
//    (sched/claimer.h: lease files under DIR/sched/leases), reading each
//    sealed shard once, executes them, and exits 0 once every node was
//    found sealed or sealed by it. Safe to run any number of these
//    concurrently with or without a coordinator: a node is "done" iff its
//    sealed shard verifies, so duplicate execution only wastes cycles.
//
// A worker refuses to participate when its build would not reproduce the
// plan's cache keys (verify_plan_keys): divergent shards must never enter
// a shared store.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

namespace qrn::sched {

struct WorkerOptions {
    std::string store_dir;
    std::uint64_t lease_ttl_ms = 10000;  ///< Standalone lease TTL.
    std::string owner;                   ///< Lease owner id; "" = "worker-<pid>".
};

/// Attached mode: serve "run <id>" requests from `in`, answer on `out`.
/// Returns the process exit code (0 on clean EOF).
int run_attached_worker(std::istream& in, std::ostream& out,
                        const WorkerOptions& options);

/// Standalone mode: claim-and-execute loop over the store's plan.
/// Returns 0 when every fleet node's shard is sealed. Throws
/// StoreError(Io) when the store has no plan yet.
int run_standalone_worker(const WorkerOptions& options);

}  // namespace qrn::sched
