#include "serve/service.h"

#include <filesystem>
#include <utility>

#include "exec/parallel.h"
#include "obs/metrics.h"
#include "qrn/contribution.h"
#include "qrn/injury_risk.h"
#include "qrn/serialize.h"
#include "qrn/verification.h"
#include "store/aggregate.h"
#include "store/cache_key.h"
#include "store/format.h"

namespace qrn::serve {

namespace {

/// Format-version salt of serve shard cache keys. Serve shards are not
/// simulation caches: the key's only job is to make the shard file name a
/// pure function of (catalog, sequence) so a replayed stream reproduces
/// identical names.
constexpr std::string_view kServeKeySalt = "qrn.serve.shard.v1";

/// Declares every serve metric once so --metrics manifests have the same
/// structure whether or not a counter ever fired.
void declare_serve_metrics() {
    obs::add_counter("serve.batches", 0);
    obs::add_counter("serve.records_accepted", 0);
    obs::add_counter("serve.shards_sealed", 0);
    obs::add_counter("serve.requests_verify", 0);
    obs::add_counter("serve.requests_status", 0);
    obs::declare_timer("serve.batch_ns");
    obs::declare_timer("serve.seal_ns");
    obs::declare_timer("serve.verify_ns");
}

}  // namespace

Service::Service(RiskNorm norm, IncidentTypeSet types, ServiceConfig config)
    : norm_(std::move(norm)),
      types_(std::move(types)),
      config_(std::move(config)),
      tree_(ClassificationTree::paper_example()),
      types_digest_(to_json(types_).dump()),
      store_(config_.store_dir) {
    if (config_.shard_roll == 0) {
        throw ServeError("shard_roll must be >= 1");
    }
    if (obs::enabled()) declare_serve_metrics();
    for (const auto& leaf : tree_.leaves()) {
        leaf_index_.emplace(leaf.joined(),
                            static_cast<std::uint16_t>(leaf_names_.size()));
        leaf_names_.push_back(leaf.joined());
    }
    {
        // Same construction as `qrn verify`: the reply must be
        // byte-identical to the batch CLI on the same inputs.
        const InjuryRiskModel model;
        const auto matrix =
            ContributionMatrix::from_injury_model(norm_, types_, model, {0.6, 0.4});
        problem_.emplace(norm_, types_, matrix);
        allocation_.emplace(allocate_water_filling(*problem_));
    }
    sealed_type_events_.assign(types_.size(), 0);

    // Heal: an interrupted writer leaves a `.tmp` no reader ever trusts.
    for (const auto& name : store_.stray_temp_files()) {
        std::filesystem::remove(store_.dir() + "/" + name);
    }
    // Rebuild the sealed-prefix fold by re-scanning every listed shard in
    // sequence order; the scan re-checksums all blocks, so corruption fails
    // startup loudly instead of poisoning the evidence.
    const auto entries = store_.entries();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].fleet_index != i) {
            throw store::StoreError(
                store::StoreErrorKind::Inconsistent,
                store_.dir() + ": serve store must hold a contiguous shard "
                               "sequence; missing sequence " +
                    std::to_string(i));
        }
        fold_sealed_shard(store_.shard_path(entries[i]));
    }
    next_sequence_ = entries.size();
}

Service::~Service() = default;

std::uint64_t Service::cache_key_for(std::uint64_t sequence) const {
    store::KeyHasher hasher;
    hasher.mix_string(kServeKeySalt);
    hasher.mix_string(types_digest_);
    hasher.mix_u64(sequence);
    return hasher.digest();
}

void Service::open_shard_if_needed() {
    if (writer_) return;
    const std::uint64_t key = cache_key_for(next_sequence_);
    const std::string filename = store::Store::shard_filename(next_sequence_, key);
    writer_ = std::make_unique<store::ShardWriter>(store_.dir() + "/" + filename,
                                                   key, next_sequence_);
}

void Service::fold_sealed_shard(const std::string& path) {
    // One-shard aggregate through the same code the batch CLI uses;
    // folding its terms in seal order reproduces a full
    // aggregate_evidence over the sealed prefix bit for bit.
    const store::StoreAggregate agg = store::aggregate_evidence(
        {{sealed_shards_, path}}, types_, /*jobs=*/1);
    for (std::size_t k = 0; k < types_.size(); ++k) {
        sealed_type_events_[k] += agg.evidence[k].events;
    }
    sealed_exposure_ += agg.total_exposure;
    sealed_records_ += agg.total_records;
    ++sealed_shards_;
}

void Service::seal_current_shard() {
    const obs::ScopedTimer timer("serve.seal_ns");
    store::ShardTotals totals;
    totals.exposure_hours = pending_exposure_;
    const store::SealReceipt receipt = writer_->seal(totals);
    if (receipt.records != pending_records_) {
        // The footer must hold every record the service accepted; one
        // that disagrees lost records, so fail the seal loudly instead.
        throw store::StoreError(
            store::StoreErrorKind::Inconsistent,
            "seal receipt claims " + std::to_string(receipt.records) +
                " records but the service accepted " +
                std::to_string(pending_records_));
    }
    const std::uint64_t key = cache_key_for(next_sequence_);
    store::ShardEntry entry;
    entry.fleet_index = next_sequence_;
    entry.file = store::Store::shard_filename(next_sequence_, key);
    entry.cache_key = key;
    store_.record(entry);
    writer_.reset();
    fold_sealed_shard(store_.shard_path(entry));
    ++next_sequence_;
    pending_records_ = 0;
    pending_exposure_ = 0.0;
    if (obs::enabled()) obs::add_counter("serve.shards_sealed", 1);
}

std::vector<ClassifyRow> Service::classify_batch(const ClassifyRequest& request) {
    const obs::ScopedTimer timer("serve.batch_ns");
    const auto& incidents = request.incidents;
    // Classification is index-pure, so the batch fans out over the shared
    // exec pool; rows come back in record order regardless of schedule.
    const auto rows = exec::parallel_map<ClassifyRow>(
        config_.jobs, incidents.size(), [&](std::size_t i) {
            ClassifyRow row;
            const auto found = leaf_index_.find(tree_.classify(incidents[i]).joined());
            row.leaf = found == leaf_index_.end() ? std::uint16_t{0xFFFF}
                                                  : found->second;
            const auto type = types_.classify(incidents[i]);
            row.type = type ? static_cast<std::uint16_t>(*type) : kNoType;
            return row;
        });
    // Serial append in arrival order: this is what pins shard bytes.
    if (!incidents.empty()) {
        const double per_record =
            request.exposure_hours / static_cast<double>(incidents.size());
        for (const auto& incident : incidents) {
            open_shard_if_needed();
            writer_->append(incident);
            pending_exposure_ += per_record;
            ++pending_records_;
            if (pending_records_ == config_.shard_roll) seal_current_shard();
        }
    } else {
        // A record-free batch still carries exposure; it attaches to the
        // live shard and seals with it.
        pending_exposure_ += request.exposure_hours;
    }
    if (obs::enabled()) {
        obs::add_counter("serve.batches", 1);
        obs::add_counter("serve.records_accepted", incidents.size());
    }
    return rows;
}

std::vector<TypeEvidence> Service::sealed_evidence() const {
    std::vector<TypeEvidence> out;
    out.reserve(types_.size());
    for (std::size_t k = 0; k < types_.size(); ++k) {
        TypeEvidence e;
        e.incident_type_id = types_.at(k).id();
        e.events = sealed_type_events_[k];
        e.exposure = sealed_exposure_;
        out.push_back(std::move(e));
    }
    return out;
}

std::string Service::verify_json(double confidence) {
    const obs::ScopedTimer timer("serve.verify_ns");
    if (obs::enabled()) obs::add_counter("serve.requests_verify", 1);
    if (sealed_shards_ == 0 || sealed_exposure_.hours() <= 0.0) {
        throw ServeError(
            "no sealed evidence yet: stream classify batches (and drain or "
            "roll a shard) before verifying");
    }
    // Round-trip the evidence through its JSON document exactly as the
    // batch path does (campaign writes it, `verify --evidence` re-reads
    // it), so the report bytes cannot diverge on serialization precision.
    const auto evidence = evidence_from_json(evidence_to_json(sealed_evidence()));
    const auto report =
        verify_against_evidence(*problem_, *allocation_, evidence, confidence);
    return to_json(report).dump(2) + "\n";
}

StatusReply Service::status() const {
    if (obs::enabled()) obs::add_counter("serve.requests_status", 1);
    StatusReply out;
    out.records_sealed = sealed_records_;
    out.records_pending = pending_records_;
    out.shards_sealed = sealed_shards_;
    out.exposure_sealed_hours = sealed_exposure_.hours();
    return out;
}

void Service::finish() {
    if (writer_ && pending_records_ > 0) {
        seal_current_shard();
    } else {
        writer_.reset();  // removes an empty .tmp, if one was opened
    }
}

}  // namespace qrn::serve
