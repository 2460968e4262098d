// Streaming aggregation over shards must reproduce the in-memory campaign
// aggregates bit for bit - evidence, exposure, pooled rate, per-fleet
// dispersion and heterogeneity - for every jobs value. These tests are the
// resume-determinism pin at the library level.
#include "store/aggregate.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/campaign.h"
#include "store/format.h"
#include "store/shard.h"
#include "store/store.h"

namespace qrn::store {
namespace {

std::string fresh_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "qrn_aggregate_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

sim::CampaignConfig small_campaign() {
    sim::CampaignConfig config;
    config.base.odd = sim::Odd::urban();
    config.base.policy = sim::TacticalPolicy::nominal();
    config.base.seed = 100;
    config.fleets = 4;
    config.hours_per_fleet = 150.0;
    return config;
}

/// Seals each campaign log as a shard and returns the refs in fleet order.
std::vector<ShardRef> shards_of(const sim::CampaignResult& result,
                                const std::string& dir) {
    std::vector<ShardRef> shards;
    for (std::size_t i = 0; i < result.logs.size(); ++i) {
        const std::uint64_t key = i + 1;
        ShardRef ref;
        ref.fleet_index = i;
        ref.path = dir + "/" + Store::shard_filename(i, key);
        write_shard(ref.path, key, i, result.logs[i]);
        shards.push_back(ref);
    }
    return shards;
}

TEST(Aggregate, ReproducesTheInMemoryCampaignExactly) {
    const auto config = small_campaign();
    const auto result = sim::run_campaign(config);
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string dir = fresh_dir("exact");
    const auto shards = shards_of(result, dir);

    // Reference statistics straight from the in-memory logs, in fleet order.
    const auto pooled = result.pooled_evidence(types);
    double events = 0.0;
    stats::RunningSummary summary;
    std::vector<stats::RateObservation> observations;
    for (const auto& log : result.logs) {
        events += static_cast<double>(log.incidents.size());
        summary.add(log.incident_rate().per_hour_value());
        observations.push_back({log.incidents.size(), log.exposure.hours()});
    }
    const auto homogeneity = stats::rate_heterogeneity_test(observations);

    for (const unsigned jobs : {1u, 2u, 4u}) {
        const StoreAggregate agg = aggregate_evidence(shards, types, jobs);
        EXPECT_EQ(agg.shard_count, result.logs.size()) << "jobs " << jobs;
        // Plain EXPECT_EQ on doubles throughout: the contract is
        // bit-identical, not merely close.
        EXPECT_EQ(agg.total_exposure.hours(), result.total_exposure.hours());
        ASSERT_EQ(agg.evidence.size(), pooled.size());
        for (std::size_t k = 0; k < pooled.size(); ++k) {
            EXPECT_EQ(agg.evidence[k].incident_type_id, pooled[k].incident_type_id);
            EXPECT_EQ(agg.evidence[k].events, pooled[k].events);
            EXPECT_EQ(agg.evidence[k].exposure.hours(), pooled[k].exposure.hours());
        }
        EXPECT_EQ(agg.pooled_incident_rate().per_hour_value(),
                  Frequency::of_count(events, result.total_exposure).per_hour_value());
        EXPECT_EQ(agg.per_fleet_rates.count(), summary.count());
        EXPECT_EQ(agg.per_fleet_rates.mean(), summary.mean());
        EXPECT_EQ(agg.per_fleet_rates.stddev(), summary.stddev());
        EXPECT_EQ(agg.per_fleet_rates.min(), summary.min());
        EXPECT_EQ(agg.per_fleet_rates.max(), summary.max());
        const auto het = agg.heterogeneity();
        EXPECT_EQ(het.chi_squared, homogeneity.chi_squared);
        EXPECT_EQ(het.degrees_of_freedom, homogeneity.degrees_of_freedom);
        EXPECT_EQ(het.p_value, homogeneity.p_value);
        EXPECT_EQ(het.pooled_rate, homogeneity.pooled_rate);
    }
    std::filesystem::remove_all(dir);
}

TEST(Aggregate, SingleEmptyShardYieldsZeroEvidence) {
    // The zero-incident edge: a fleet can complete its exposure without a
    // single recorded incident; the evidence must say "0 events over H
    // hours", not vanish.
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string dir = fresh_dir("empty");
    sim::IncidentLog log;
    log.exposure = ExposureHours(50.0);
    const std::string path = dir + "/" + Store::shard_filename(0, 9);
    write_shard(path, 9, 0, log);

    const StoreAggregate agg = aggregate_evidence({{0, path}}, types, 2);
    EXPECT_EQ(agg.total_records, 0u);
    EXPECT_EQ(agg.total_exposure.hours(), 50.0);
    for (const auto& evidence : agg.evidence) {
        EXPECT_EQ(evidence.events, 0u);
        EXPECT_EQ(evidence.exposure.hours(), 50.0);
    }
    EXPECT_EQ(agg.pooled_incident_rate().per_hour_value(), 0.0);
    EXPECT_EQ(agg.per_fleet_rates.count(), 1u);
    // Heterogeneity needs at least two fleets, exactly like the in-memory
    // CampaignResult::heterogeneity().
    EXPECT_THROW((void)agg.heterogeneity(), std::invalid_argument);
    std::filesystem::remove_all(dir);
}

TEST(Aggregate, AllIncidentsOfOneTypeLandInThatTypeOnly) {
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string dir = fresh_dir("onetype");
    sim::IncidentLog log;
    for (int i = 0; i < 40; ++i) {
        Incident incident;
        incident.second = ActorType::Vru;
        incident.relative_speed_kmh = 5.0;  // the I2 band
        incident.timestamp_hours = static_cast<double>(i);
        log.incidents.push_back(incident);
    }
    log.exposure = ExposureHours(80.0);
    const std::string path = dir + "/" + Store::shard_filename(0, 5);
    write_shard(path, 5, 0, log);

    const StoreAggregate agg = aggregate_evidence({{0, path}}, types, 1);
    const auto reference = log.evidence_for(types);
    ASSERT_EQ(agg.evidence.size(), reference.size());
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < reference.size(); ++k) {
        EXPECT_EQ(agg.evidence[k].events, reference[k].events) << k;
        total += agg.evidence[k].events;
    }
    EXPECT_EQ(total, 40u);
    std::filesystem::remove_all(dir);
}

TEST(Aggregate, PropagatesShardCorruption) {
    const auto config = small_campaign();
    const auto result = sim::run_campaign(config);
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string dir = fresh_dir("corrupt");
    const auto shards = shards_of(result, dir);

    // Flip one byte in the middle of the second shard.
    std::ifstream in(shards[1].path, std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    in.close();
    ASSERT_GT(bytes.size(), 50u);
    bytes[48] = static_cast<char>(bytes[48] ^ 0x40);
    std::ofstream out(shards[1].path, std::ios::binary | std::ios::trunc);
    out << bytes;
    out.close();

    EXPECT_THROW((void)aggregate_evidence(shards, types, 2), StoreError);
    std::filesystem::remove_all(dir);
}

TEST(Aggregate, RejectsAShardFiledUnderAnotherFleet) {
    // A sealed shard passes every checksum wherever it lies, so only its
    // header says which fleet it belongs to. Fleet 1's shard copied over
    // fleet 2's path must not be counted twice.
    const auto config = small_campaign();
    const auto result = sim::run_campaign(config);
    const auto types = IncidentTypeSet::paper_vru_example();
    const std::string dir = fresh_dir("misfiled");
    const auto shards = shards_of(result, dir);
    std::filesystem::copy_file(shards[1].path, shards[2].path,
                               std::filesystem::copy_options::overwrite_existing);

    try {
        (void)aggregate_evidence(shards, types, 2);
        FAIL() << "expected StoreError for a misfiled shard";
    } catch (const StoreError& error) {
        EXPECT_EQ(error.kind(), StoreErrorKind::Inconsistent);
        const std::string what = error.what();
        EXPECT_NE(what.find(shards[2].path), std::string::npos) << what;
        EXPECT_NE(what.find("fleet 1"), std::string::npos) << what;
        EXPECT_NE(what.find("fleet 2"), std::string::npos) << what;
    }
    std::filesystem::remove_all(dir);
}

TEST(Aggregate, EmptyShardListIsAnEmptyAggregate) {
    const auto types = IncidentTypeSet::paper_vru_example();
    const StoreAggregate agg = aggregate_evidence({}, types, 1);
    EXPECT_EQ(agg.shard_count, 0u);
    EXPECT_EQ(agg.total_records, 0u);
    EXPECT_EQ(agg.total_exposure.hours(), 0.0);
}

}  // namespace
}  // namespace qrn::store
