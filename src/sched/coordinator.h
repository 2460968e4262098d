// The distributed-campaign coordinator: owns the work DAG and, whenever an
// attached worker process is idle, claims the next fleet node for it
// through the one claim loop (sched/claimer.h) and dispatches it. So it
// holds at most one lease per worker slot, and renews only those.
//
// The coordinator is deliberately stateless across restarts: everything it
// needs to resume lives in the store (the plan, the lease files, and the
// sealed shards themselves - a node is "done" iff its shard verifies
// clean). Killing the coordinator at any point and rerunning the same
// command heals to byte-identical output, because the only authoritative
// state transition is the atomic shard seal.
//
// Worker management: N child processes of this binary (`qrn sched worker
// --attached`) speak a one-line pipe protocol ("run <id>" down stdin,
// "ok <id>" / "fail <id> <reason>" up stdout). A worker that dies has its
// in-flight node put back (the coordinator still holds the lease) and is
// respawned a bounded number of times. Standalone workers may share the
// campaign: nodes they lease are deferred to until the lease expires,
// then stolen, and shards they seal are recorded as reused.
#pragma once

#include <cstdint>
#include <string>

#include "sched/dag.h"
#include "sched/plan.h"

namespace qrn::sched {

struct CoordinatorConfig {
    std::string store_dir;
    unsigned workers = 2;                ///< Attached worker processes.
    std::uint64_t lease_ttl_ms = 10000;  ///< Lease TTL; renewal at TTL/3.
};

/// What one coordinator run did (also mirrored into sched.* obs counters).
struct CoordinatorStats {
    std::uint64_t nodes_total = 0;
    std::uint64_t nodes_dispatched = 0;  ///< "run" lines sent (incl. retries).
    std::uint64_t nodes_completed = 0;   ///< Finished by our workers.
    std::uint64_t nodes_reused = 0;      ///< Shard already sealed (resume or
                                         ///< external worker).
    std::uint64_t leases_acquired = 0;
    std::uint64_t leases_stolen = 0;
    std::uint64_t leases_renewed = 0;
    std::uint64_t workers_spawned = 0;
    std::uint64_t worker_respawns = 0;
    std::uint64_t worker_failures = 0;   ///< Worker deaths + "fail" replies.
};

/// Drives every fleet node of the plan to "done" (sealed shard verifies
/// clean) and records each into the store, making this process the one
/// that deletes a fleet's superseded shards (another campaign's keys).
/// Returns when all fleet nodes are done, one shard per plan fleet.
/// Throws SchedError when the campaign cannot finish (a node exhausted its
/// retries, or every worker died past its respawn budget) and
/// StoreError(Io) on store failures.
[[nodiscard]] CoordinatorStats run_coordinator(const CampaignPlan& plan,
                                               const Dag& dag,
                                               const CoordinatorConfig& config);

}  // namespace qrn::sched
