// Single-pass streaming aggregation over sealed shards.
//
// A resumed or cached campaign must print the same evidence, rates and
// heterogeneity statistics as the run that simulated everything in memory
// - digit for digit. aggregate_evidence scans each shard once into a
// sim::FleetPartial and hands the partials, in fleet order, to the same
// sim::fold_fleets the in-memory CampaignResult uses. Per-shard scans are
// independent and run in parallel via qrn_exec; each holds O(block)
// memory, never a whole log.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qrn/incident_type.h"
#include "sim/campaign.h"

namespace qrn::store {

/// One shard to aggregate, in campaign fleet order.
struct ShardRef {
    std::uint64_t fleet_index = 0;  ///< Must match the shard header's fleet.
    std::string path;
};

/// Everything `qrn campaign` reports, rebuilt from shards: the campaign
/// aggregate every path shares.
using StoreAggregate = sim::CampaignAggregate;

/// Streams every shard once and folds the partials in fleet order. Shards
/// are scanned in parallel (`jobs`); the fold is serial, so the result is
/// bit-identical for every jobs value and equal to the in-memory
/// CampaignResult::aggregate. Throws StoreError on any shard defect, and
/// StoreError(Inconsistent) when a shard's header names another fleet than
/// its ShardRef.
[[nodiscard]] StoreAggregate aggregate_evidence(const std::vector<ShardRef>& shards,
                                                const IncidentTypeSet& types,
                                                unsigned jobs);

}  // namespace qrn::store
