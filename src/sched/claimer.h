// The scheduler's one claim loop, shared by the coordinator and the
// standalone workers.
//
// A Claimer walks a plan's fleet nodes in dispatch order and hands each
// one out once, when asked for a node:
//  - a node whose shard verifies (store::check_fleet_shard), before or
//    just after its lease is claimed, comes out Settled, and holds none;
//  - otherwise a free or expired lease claimed through store::claim_lease
//    (counted as sched.leases_acquired or sched.leases_stolen) makes it
//    come out Acquired or Stolen: the caller now holds it;
//  - a live lease defers the node to its holder. Deferred nodes are
//    looked at again, once the walk has passed them, every kRevisitMs.
// A node the caller puts back (a failed run, a dead worker) comes out
// again, Held, before any node not yet handed out. So a coordinator that
// asks only when a worker is idle holds at most one lease per worker, and
// a standalone worker beside it takes the nodes it has not reached.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "sched/dag.h"
#include "sched/plan.h"
#include "store/campaign_store.h"

namespace qrn::sched {

/// The plan's fleet indices in dispatch order: the heaviest critical-path
/// level first, ties by fleet index. The campaign DAG ties every fleet, so
/// for it this is index order. Throws SchedError when the DAG has no node
/// for one of the plan's fleets.
[[nodiscard]] std::vector<Dag::Index> dispatch_order(const CampaignPlan& plan,
                                                     const Dag& dag);

/// A node Claimer::next() handed out.
struct Claim {
    enum class Kind {
        Acquired,  ///< Its free lease is now the caller's (generation 1).
        Stolen,    ///< Its expired lease is now the caller's.
        Held,      ///< Put back by the caller, who still holds its lease.
        Settled,   ///< Its shard verifies; nobody needs to run it.
    };
    Kind kind = Kind::Acquired;
    std::uint64_t fleet = 0;
    std::uint64_t generation = 0;  ///< The lease's, when Acquired or Stolen.
    store::FleetShard shard;       ///< The verified shard, when Settled.
};

class Claimer {
public:
    static constexpr std::uint64_t kRevisitMs = 100;

    /// Walks `order`, fleet indices of `plan` (which must outlive the
    /// claimer), over the store in `store_dir`, claiming as `owner`.
    Claimer(const CampaignPlan& plan, std::string store_dir, std::string owner,
            std::uint64_t ttl_ms, std::vector<Dag::Index> order);

    /// The next node, or nullopt when none can be handed out now: every
    /// node left is the caller's or waits for the next revisit. Throws
    /// StoreError(Io) as claim_lease does.
    [[nodiscard]] std::optional<Claim> next();

    /// Puts back a node the caller still holds; next() hands put-back
    /// nodes out first, in the order they came back.
    void put_back(std::uint64_t fleet) { held_.push_back(fleet); }

    /// True when every node was settled or handed to the caller, and none
    /// was put back or deferred since.
    [[nodiscard]] bool exhausted() const noexcept {
        return held_.empty() && at_ == walk_.size() && deferred_.empty();
    }

    /// Milliseconds until deferred nodes are looked at again; 0 when due.
    [[nodiscard]] std::uint64_t revisit_in_ms() const noexcept;

private:
    /// Settles or claims one node; nullopt when a live lease defers it.
    [[nodiscard]] std::optional<Claim> visit(std::uint64_t fleet);

    const CampaignPlan& plan_;
    const std::string store_dir_;
    const std::string lease_dir_;
    const std::string owner_;
    const std::uint64_t ttl_ms_;
    /// This pass's nodes (the dispatch order, then each revisit's
    /// deferred ones); walk_[at_] is the next to visit.
    std::vector<Dag::Index> walk_;
    std::size_t at_ = 0;
    std::vector<Dag::Index> deferred_;
    std::uint64_t revisit_at_ms_ = 0;
    std::deque<std::uint64_t> held_;
};

}  // namespace qrn::sched
