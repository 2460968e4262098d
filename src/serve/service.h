// The serve daemon's domain core: classify batches, append them to live
// qrn-store shards, and verify Eq. 1 incrementally over the sealed prefix.
//
// Single-threaded by contract: every method (except the const status
// snapshot) is called only from the dispatcher thread, which is what makes
// shard contents deterministic in arrival order without any locking here.
// The classification of a batch itself fans out over the shared exec
// thread pool (per-record work is index-pure), so a large batch still uses
// every core while the append stays serial.
//
// Crash recovery: on startup the service deletes stray `.tmp` files (an
// interrupted writer's leavings), re-scans every sealed shard through the
// PR 5 aggregator (which re-checksums all blocks), and resumes appending
// at the next shard sequence number. Shard names and cache keys are pure
// functions of (catalog digest, sequence), so a replayed stream with the
// same batching reproduces byte-identical shards.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "qrn/allocation.h"
#include "qrn/classification.h"
#include "qrn/incident_type.h"
#include "qrn/risk_norm.h"
#include "serve/protocol.h"
#include "store/shard.h"
#include "store/store.h"

namespace qrn::serve {

/// The daemon could not serve a request for a domain reason (no sealed
/// evidence yet, inconsistent store). Maps to an Error reply, never to a
/// dropped connection.
class ServeError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

struct ServiceConfig {
    std::string store_dir;          ///< Required: the live shard store.
    std::uint64_t shard_roll = 4096;  ///< Records per shard before sealing.
    unsigned jobs = 1;              ///< Parallelism of batch classification.
};

class Service {
public:
    /// Opens (and heals) the store, rebuilds the sealed-prefix evidence
    /// fold, and precomputes the allocation the verify replies are
    /// derived from. Throws StoreError on unreadable/corrupt shards.
    Service(RiskNorm norm, IncidentTypeSet types, ServiceConfig config);
    ~Service();

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// Classifies the batch, appends every record to the live shard
    /// (rolling at shard_roll records), and returns one row per record in
    /// request order. The batch's exposure delta spreads uniformly over
    /// its records, so a batch spanning a roll boundary splits its
    /// exposure proportionally between the two shards.
    [[nodiscard]] std::vector<ClassifyRow> classify_batch(const ClassifyRequest& request);

    /// The Eq. 1 verification report for the sealed prefix, serialized
    /// exactly as `qrn verify` prints it (same JSON, same trailing
    /// newline). Throws ServeError when no sealed evidence exists yet.
    [[nodiscard]] std::string verify_json(double confidence);

    [[nodiscard]] StatusReply status() const;

    /// Seals the partially-filled live shard (if any records are pending)
    /// so a graceful drain loses nothing. Idempotent.
    void finish();

    [[nodiscard]] const IncidentTypeSet& types() const noexcept { return types_; }

private:
    void seal_current_shard();
    void open_shard_if_needed();
    void fold_sealed_shard(const std::string& path);
    [[nodiscard]] std::uint64_t cache_key_for(std::uint64_t sequence) const;
    [[nodiscard]] std::vector<TypeEvidence> sealed_evidence() const;

    RiskNorm norm_;
    IncidentTypeSet types_;
    ServiceConfig config_;
    ClassificationTree tree_;
    std::vector<std::string> leaf_names_;  ///< joined() paths, leaf order.
    std::unordered_map<std::string, std::uint16_t> leaf_index_;
    std::optional<AllocationProblem> problem_;
    std::optional<Allocation> allocation_;
    std::string types_digest_;

    store::Store store_;
    std::unique_ptr<store::ShardWriter> writer_;
    std::uint64_t next_sequence_ = 0;     ///< fleet index of the live shard.
    std::uint64_t pending_records_ = 0;   ///< records in the live shard.
    double pending_exposure_ = 0.0;       ///< exposure in the live shard.

    // Sealed-prefix fold, in seal (= fleet) order; reproduces
    // store::aggregate_evidence over the same shards term for term.
    std::vector<std::uint64_t> sealed_type_events_;
    ExposureHours sealed_exposure_;
    std::uint64_t sealed_records_ = 0;
    std::uint64_t sealed_shards_ = 0;
};

}  // namespace qrn::serve
