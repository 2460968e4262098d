#include "sched/claimer.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "store/lease.h"

namespace qrn::sched {

std::vector<Dag::Index> dispatch_order(const CampaignPlan& plan, const Dag& dag) {
    std::vector<Dag::Index> order(plan.fleets);
    std::vector<double> level(plan.fleets);
    for (std::uint64_t i = 0; i < plan.fleets; ++i) {
        const std::optional<std::size_t> at = dag.index_of(plan_node_id(i));
        if (!at) throw SchedError("dispatch_order: DAG has no node " + plan_node_id(i));
        // Each fleet has its own DAG node, so i < dag.size() fits an Index.
        order[i] = static_cast<Dag::Index>(i);
        level[i] = dag.level(*at);
    }
    const auto before = [&level](Dag::Index a, Dag::Index b) {
        return level[a] != level[b] ? level[a] > level[b] : a < b;
    };
    // The campaign DAG ties every fleet, so its order is already sorted.
    if (!std::is_sorted(order.begin(), order.end(), before)) {
        std::sort(order.begin(), order.end(), before);
    }
    return order;
}

Claimer::Claimer(const CampaignPlan& plan, std::string store_dir, std::string owner,
                 std::uint64_t ttl_ms, std::vector<Dag::Index> order)
    : plan_(plan),
      store_dir_(std::move(store_dir)),
      lease_dir_(lease_dir(store_dir_)),
      owner_(std::move(owner)),
      ttl_ms_(ttl_ms),
      walk_(std::move(order)),
      revisit_at_ms_(store::lease_now_ms() + kRevisitMs) {}

std::optional<Claim> Claimer::next() {
    if (!held_.empty()) {
        const std::uint64_t fleet = held_.front();
        held_.pop_front();
        return Claim{Claim::Kind::Held, fleet, 0, {}};
    }
    for (;;) {
        if (at_ == walk_.size()) {
            if (deferred_.empty() || revisit_in_ms() > 0) return std::nullopt;
            walk_ = std::exchange(deferred_, {});
            at_ = 0;
            revisit_at_ms_ = store::lease_now_ms() + kRevisitMs;
        }
        const Dag::Index fleet = walk_[at_++];
        if (std::optional<Claim> claim = visit(fleet)) return claim;
        deferred_.push_back(fleet);
    }
}

std::uint64_t Claimer::revisit_in_ms() const noexcept {
    const std::uint64_t now = store::lease_now_ms();
    return revisit_at_ms_ > now ? revisit_at_ms_ - now : 0;
}

std::optional<Claim> Claimer::visit(std::uint64_t fleet) {
    Claim claim{Claim::Kind::Settled, fleet, 0,
                store::check_fleet_shard(store_dir_, fleet, plan_.nodes[fleet].key)};
    if (claim.shard.state == store::ShardState::Sealed) return claim;
    const std::optional<store::LeaseClaim> lease =
        store::claim_lease(lease_dir_, plan_node_id(fleet), owner_, ttl_ms_);
    if (!lease) return std::nullopt;
    // A peer may have sealed the node and released its lease between the
    // check and the claim. Usually there is no shard yet: one failed open.
    claim.shard = store::check_fleet_shard(store_dir_, fleet, plan_.nodes[fleet].key);
    if (claim.shard.state == store::ShardState::Sealed) {
        store::release_lease(lease_dir_, plan_node_id(fleet));
        return claim;
    }
    if (obs::enabled()) {
        obs::add_counter(lease->stolen ? "sched.leases_stolen" : "sched.leases_acquired", 1);
    }
    claim.kind = lease->stolen ? Claim::Kind::Stolen : Claim::Kind::Acquired;
    claim.generation = lease->generation;
    return claim;
}

}  // namespace qrn::sched
