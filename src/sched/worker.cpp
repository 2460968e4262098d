#include "sched/worker.h"

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <string_view>
#include <thread>

#include "obs/metrics.h"
#include "sched/claimer.h"
#include "sched/plan.h"
#include "store/campaign_store.h"
#include "store/format.h"
#include "store/lease.h"
#include "store/store.h"

namespace qrn::sched {

namespace {

/// One-shot crash injection for the crash/steal test matrix. The env
/// value is "<fleet_index>:<marker_path>"; the fault fires only while the
/// marker file does not exist, and creates it when it fires, so the
/// resumed process runs through cleanly.
struct Fault {
    std::uint64_t fleet_index = 0;
    std::string marker;
};

std::optional<Fault> fault_from_env(const char* name) {
    const char* raw = std::getenv(name);
    if (raw == nullptr) return std::nullopt;
    const std::string_view text(raw);
    const std::size_t colon = text.find(':');
    if (colon == 0 || colon == std::string_view::npos ||
        colon + 1 == text.size()) {
        return std::nullopt;
    }
    Fault fault;
    for (const char ch : text.substr(0, colon)) {
        if (ch < '0' || ch > '9') return std::nullopt;
        fault.fleet_index = fault.fleet_index * 10 +
                            static_cast<std::uint64_t>(ch - '0');
    }
    fault.marker = std::string(text.substr(colon + 1));
    return fault;
}

/// True (and burns the one shot) when `fault` targets this fleet and has
/// not fired yet.
bool fault_fires(const std::optional<Fault>& fault, std::uint64_t fleet_index) {
    if (!fault || fault->fleet_index != fleet_index) return false;
    std::error_code ec;
    if (std::filesystem::exists(fault->marker, ec)) return false;
    std::ofstream marker(fault->marker, std::ios::trunc);
    marker << "fired\n";
    return true;
}

/// The shared execution context of one worker: the plan, the config it
/// reconstructs, and the store directory shards seal into.
class NodeRunner {
public:
    explicit NodeRunner(const WorkerOptions& options)
        : store_dir_(options.store_dir),
          fault_mid_shard_(fault_from_env("QRN_SCHED_FAULT_MID_SHARD")) {
        std::optional<CampaignPlan> plan = read_plan(store_dir_);
        if (!plan) {
            throw store::StoreError(
                store::StoreErrorKind::Io,
                "no campaign plan in '" + store_dir_ +
                    "' (run the coordinator first: qrn campaign --distributed "
                    "--store " +
                    store_dir_ + ")");
        }
        plan_ = std::move(*plan);
        verify_plan_keys(plan_, campaign_inputs_digest());
        config_ = config_from_plan(plan_);
    }

    [[nodiscard]] const CampaignPlan& plan() const noexcept { return plan_; }

    /// Simulates and seals the fleet's shard. Whoever handed the node out
    /// checked the shard when it claimed the node.
    void execute(std::uint64_t fleet_index) {
        if (fault_fires(fault_mid_shard_, fleet_index)) {
            // A crash mid-seal leaves a garbage temp file behind; the
            // sealed name never appears (write_shard renames last).
            const std::string shard = store::Store::shard_filename(
                fleet_index, plan_.nodes[fleet_index].key);
            std::ofstream garbage(store_dir_ + "/" + shard + std::string(store::kTempSuffix),
                                  std::ios::trunc);
            garbage << "partial write cut short by crash\n";
            garbage.flush();
            std::_Exit(137);
        }
        obs::ScopedTimer timer("sched.node_exec_ns");
        // verify_plan_keys vouched for every plan key at start-up.
        const store::ShardEntry entry = store::simulate_fleet_shard(
            config_, store_dir_, fleet_index, plan_.nodes[fleet_index].key);
        if (obs::enabled()) {
            obs::add_counter("sched.nodes_completed", 1);
            obs::add_counter("store.records_written_by_worker", entry.records);
        }
    }

private:
    std::string store_dir_;
    std::optional<Fault> fault_mid_shard_;
    CampaignPlan plan_;
    sim::CampaignConfig config_;
};

/// Protocol replies must stay one line each.
std::string one_line(std::string text) {
    for (char& ch : text) {
        if (ch == '\n' || ch == '\r') ch = ' ';
    }
    return text;
}

}  // namespace

int run_attached_worker(std::istream& in, std::ostream& out,
                        const WorkerOptions& options) {
    NodeRunner runner(options);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        constexpr std::string_view kRun = "run ";
        if (line.size() <= kRun.size() ||
            std::string_view(line).substr(0, kRun.size()) != kRun) {
            out << "fail - unknown-command " << one_line(line) << "\n";
            out.flush();
            continue;
        }
        const std::string id = line.substr(kRun.size());
        const std::optional<std::uint64_t> fleet = fleet_index_of(id);
        if (!fleet || *fleet >= runner.plan().fleets) {
            out << "fail " << id << " unknown-node\n";
            out.flush();
            continue;
        }
        try {
            runner.execute(*fleet);
            out << "ok " << id << "\n";
        } catch (const std::exception& error) {
            out << "fail " << id << " " << one_line(error.what()) << "\n";
        }
        out.flush();
    }
    return 0;
}

int run_standalone_worker(const WorkerOptions& options) {
    NodeRunner runner(options);
    const CampaignPlan& plan = runner.plan();
    const std::string owner = options.owner.empty()
                                  ? "worker-" + std::to_string(::getpid())
                                  : options.owner;
    const std::optional<Fault> fault_mid_lease =
        fault_from_env("QRN_SCHED_FAULT_MID_LEASE");

    Claimer claimer(plan, options.store_dir, owner, options.lease_ttl_ms,
                    dispatch_order(plan, build_campaign_dag(plan)));
    while (!claimer.exhausted()) {
        const std::optional<Claim> claim = claimer.next();
        if (!claim) {
            // Every node left is leased by a live peer.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(claimer.revisit_in_ms()));
            continue;
        }
        if (claim->kind == Claim::Kind::Settled) continue;
        if (fault_fires(fault_mid_lease, claim->fleet)) {
            // Crash while holding the lease: the file stays behind and
            // must be stolen after the TTL for the campaign to finish.
            std::_Exit(137);
        }
        runner.execute(claim->fleet);
        store::release_lease(lease_dir(options.store_dir), plan_node_id(claim->fleet));
    }
    return 0;
}

}  // namespace qrn::sched
