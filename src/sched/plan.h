// The campaign plan: the distributed scheduler's shared source of truth.
//
// `DIR/sched/plan.json` is written once by the coordinator (that is the
// DAG's "generate" node) and read by every worker sharing the store. It
// pins the campaign's identity - policy, ODD, seed, fleet count, hours -
// and the PR 5 content-addressed cache key of every fleet node, so a node
// is "done" exactly when the sealed shard named by its key verifies clean
// in the store. Workers recompute each key from the reconstructed config
// and refuse to run when any key disagrees with the plan: a build or
// catalog skew between machines must abort loudly, never seal shards a
// byte-identical campaign would not have produced.
//
// Seed and hours travel as 16-digit hex (the seed's u64 value, the hours'
// IEEE-754 bit pattern) because both feed the cache keys bit-for-bit and a
// JSON double cannot carry a full u64 exactly.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sched/dag.h"
#include "sim/campaign.h"

namespace qrn::sched {

inline constexpr std::string_view kGenerateNode = "generate";
inline constexpr std::string_view kAggregateNode = "aggregate";
inline constexpr std::string_view kVerifyNode = "verify";

/// One fleet node of the plan.
struct PlanNode {
    std::uint64_t fleet_index = 0;
    std::uint64_t key = 0;  ///< fleet_cache_key of this fleet.

    friend bool operator==(const PlanNode&, const PlanNode&) = default;
};

/// The whole campaign, as the store's workers see it.
struct CampaignPlan {
    std::string policy;  ///< Tactical-policy name ("nominal", ...).
    std::string odd;     ///< ODD name ("urban" | "highway").
    std::uint64_t seed = 0;
    std::uint64_t fleets = 0;
    double hours_per_fleet = 0.0;
    std::vector<PlanNode> nodes;  ///< One per fleet, fleet order.

    friend bool operator==(const CampaignPlan&, const CampaignPlan&) = default;
};

/// "fleet-00042": the DAG/lease node id of a fleet (5-digit zero-padded,
/// matching the shard file-name convention).
[[nodiscard]] std::string plan_node_id(std::uint64_t fleet_index);

/// Inverse of plan_node_id; nullopt for anything but its exact spelling
/// ("fleet-1", extra leading zeros and out-of-range digits are refused).
[[nodiscard]] std::optional<std::uint64_t> fleet_index_of(std::string_view id);

/// The opaque inputs digest every campaign cache key folds in: the
/// serialized incident-type catalog evidence is labelled against. The
/// CLI's --store and --distributed campaigns both key their shards by it.
[[nodiscard]] std::string campaign_inputs_digest();

/// Compiles a campaign into a plan: one node per fleet with its content
/// key. `policy`/`odd` must be the names `config.base` was built from.
[[nodiscard]] CampaignPlan make_plan(std::string policy, std::string odd,
                                     const sim::CampaignConfig& config,
                                     std::string_view inputs_digest);

/// Reconstructs the CampaignConfig a plan describes. Throws SchedError on
/// an unknown policy/ODD name (a plan from a newer build).
[[nodiscard]] sim::CampaignConfig config_from_plan(const CampaignPlan& plan);

/// Recomputes every node key from the reconstructed config and throws
/// SchedError on the first mismatch: this build would not reproduce the
/// plan's shards (config or catalog skew), so it must not participate.
void verify_plan_keys(const CampaignPlan& plan, std::string_view inputs_digest);

/// `DIR/sched/plan.json` and `DIR/sched/leases`.
[[nodiscard]] std::string plan_path(const std::string& store_dir);
[[nodiscard]] std::string lease_dir(const std::string& store_dir);

/// Writes the plan atomically (temp + fsync + rename + directory fsync,
/// the seal order) and creates the sched/ and sched/leases directories.
/// Throws StoreError(Io) on failure.
void write_plan(const std::string& store_dir, const CampaignPlan& plan);

/// Reads a store's plan. Returns nullopt when no plan has been written;
/// throws SchedError when the file exists but is not a valid plan, and
/// StoreError(Io) when it cannot be read.
[[nodiscard]] std::optional<CampaignPlan> read_plan(const std::string& store_dir);

/// The campaign work DAG: generate -> fleet-i (weight hours_per_fleet)
/// -> aggregate -> verify, built and frozen.
[[nodiscard]] Dag build_campaign_dag(const CampaignPlan& plan);

}  // namespace qrn::sched
