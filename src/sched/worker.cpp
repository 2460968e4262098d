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

    [[nodiscard]] std::string shard_path(std::uint64_t fleet_index) const {
        return store_dir_ + "/" +
               store::Store::shard_filename(fleet_index,
                                            plan_.nodes[fleet_index].key);
    }

    /// True when the fleet's shard already verifies clean under the plan's
    /// key: the node is done no matter who sealed it.
    [[nodiscard]] bool shard_done(std::uint64_t fleet_index) const {
        return store::check_fleet_shard(store_dir_, fleet_index,
                                        plan_.nodes[fleet_index].key)
                   .state == store::ShardState::Sealed;
    }

    /// Simulates and seals the fleet's shard unless it is already done.
    void execute(std::uint64_t fleet_index) {
        if (shard_done(fleet_index)) return;
        if (fault_fires(fault_mid_shard_, fleet_index)) {
            // A crash mid-seal leaves a garbage temp file behind; the
            // sealed name never appears (write_shard renames last).
            std::ofstream garbage(
                shard_path(fleet_index) + std::string(store::kTempSuffix),
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
    const std::string owner = options.owner.empty()
                                  ? "worker-" + std::to_string(::getpid())
                                  : options.owner;
    const std::string leases = lease_dir(options.store_dir);
    const std::optional<Fault> fault_mid_lease =
        fault_from_env("QRN_SCHED_FAULT_MID_LEASE");

    for (;;) {
        bool all_done = true;
        bool progressed = false;
        for (std::uint64_t i = 0; i < runner.plan().fleets; ++i) {
            if (runner.shard_done(i)) continue;
            all_done = false;

            const std::string id = plan_node_id(i);
            const std::optional<store::LeaseClaim> claim =
                store::claim_lease(leases, id, owner, options.lease_ttl_ms);
            if (!claim) continue;
            if (obs::enabled()) {
                obs::add_counter(claim->stolen ? "sched.leases_stolen"
                                               : "sched.leases_acquired",
                                 1);
            }

            if (fault_fires(fault_mid_lease, i)) {
                // Crash while holding the lease: the file stays behind and
                // must be stolen after the TTL for the campaign to finish.
                std::_Exit(137);
            }
            runner.execute(i);
            store::release_lease(leases, id);
            progressed = true;
        }
        if (all_done) return 0;
        if (!progressed) {
            // Every remaining node is leased by a live peer; back off
            // until something finishes or a lease expires.
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
    }
}

}  // namespace qrn::sched
