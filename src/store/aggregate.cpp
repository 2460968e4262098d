#include "store/aggregate.h"

#include <string>

#include "exec/parallel.h"
#include "store/shard.h"

namespace qrn::store {

StoreAggregate aggregate_evidence(const std::vector<ShardRef>& shards,
                                  const IncidentTypeSet& types, unsigned jobs) {
    const std::vector<sim::FleetPartial> partials =
        exec::parallel_map<sim::FleetPartial>(jobs, shards.size(), [&](std::size_t s) {
            sim::FleetPartial fleet;
            fleet.type_events.assign(types.size(), 0);
            ShardReader reader(shards[s].path);
            // Every per-type count of a block in one pass, summed into the
            // fleet's partial.
            const ShardInfo info =
                reader.for_each_block([&](std::span<const Incident> block) {
                    const std::vector<std::uint64_t> counts =
                        count_matching_all(block, types);
                    for (std::size_t k = 0; k < types.size(); ++k) {
                        fleet.type_events[k] += counts[k];
                    }
                });
            // The header names the fleet the shard was sealed for; a shard
            // copied or renamed into another fleet's slot must not be
            // folded there.
            if (info.fleet_index != shards[s].fleet_index) {
                throw StoreError(StoreErrorKind::Inconsistent,
                                 shards[s].path + ": shard header is fleet " +
                                     std::to_string(info.fleet_index) +
                                     " but it is listed as fleet " +
                                     std::to_string(shards[s].fleet_index));
            }
            fleet.records = info.records;
            fleet.exposure_hours = info.totals.exposure_hours;
            return fleet;
        });
    return sim::fold_fleets(partials, types);
}

}  // namespace qrn::store
