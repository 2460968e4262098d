// Crash/steal matrix for the distributed campaign scheduler, run against
// the real `qrn` binary: kill a worker mid-shard and mid-lease, kill the
// coordinator after dispatch but before aggregation, resume, and require
// the healed evidence - stdout and every sealed shard - to be
// byte-identical to an uninterrupted single-process `--jobs 1` run.
//
// This works because a node's identity is its content-addressed shard
// key: a crash discards at most an unsealed .tmp file, a re-run of the
// same node seals the same bytes, and the coordinator only records nodes
// whose sealed shard verifies clean, so any interleaving of deaths and
// steals converges on the same store.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qrn/json.h"
#include "sched/plan.h"
#include "store/lease.h"

namespace {

using namespace qrn;

#ifndef QRN_CLI_PATH
#error "QRN_CLI_PATH must be defined by the build"
#endif

// Small enough to finish in seconds, large enough that four workers all
// get shards and a mid-campaign death leaves real work to heal.
constexpr const char* kFleets = "4";
constexpr const char* kHours = "20";
constexpr const char* kSeed = "11";

std::string read_file_bytes(const std::string& path) {
    std::ifstream f(path, std::ios::binary);
    EXPECT_TRUE(f.is_open()) << path;
    std::stringstream buffer;
    buffer << f.rdbuf();
    return buffer.str();
}

/// Every sealed shard in the store, name -> bytes.
std::map<std::string, std::string> shard_bytes(const std::string& store_dir) {
    std::map<std::string, std::string> out;
    for (const auto& item : std::filesystem::directory_iterator(store_dir)) {
        const auto name = item.path().filename().string();
        if (name.size() > 4 && name.substr(name.size() - 4) == ".qrs") {
            out[name] = read_file_bytes(item.path().string());
        }
    }
    return out;
}

struct RunResult {
    int exit_code = -1;  ///< WEXITSTATUS, or 128 + signal when killed.
    std::string out;     ///< Captured stdout bytes.
    std::string err;     ///< Captured stderr bytes.
};

/// Runs the qrn binary to completion with stdout/stderr captured and the
/// given environment overlaid (fault injection knobs).
RunResult run_qrn(const std::string& scratch,
                  const std::vector<std::string>& args,
                  const std::vector<std::pair<std::string, std::string>>& env =
                      {}) {
    static int serial = 0;
    const std::string tag = scratch + "/run" + std::to_string(serial++);
    const std::string out_path = tag + ".out";
    const std::string err_path = tag + ".err";

    const pid_t pid = fork();
    if (pid == 0) {
        for (const auto& [key, value] : env) {
            ::setenv(key.c_str(), value.c_str(), 1);
        }
        const int out_fd =
            ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        const int err_fd =
            ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (out_fd < 0 || err_fd < 0) _exit(126);
        ::dup2(out_fd, 1);
        ::dup2(err_fd, 2);
        ::close(out_fd);
        ::close(err_fd);
        std::vector<char*> argv;
        argv.push_back(const_cast<char*>("qrn"));
        for (const std::string& arg : args) {
            argv.push_back(const_cast<char*>(arg.c_str()));
        }
        argv.push_back(nullptr);
        ::execv(QRN_CLI_PATH, argv.data());
        _exit(127);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    RunResult result;
    if (WIFEXITED(status)) {
        result.exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
        result.exit_code = 128 + WTERMSIG(status);
    }
    result.out = read_file_bytes(out_path);
    result.err = read_file_bytes(err_path);
    return result;
}

/// A fresh scratch directory per test.
std::string scratch_for(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "qrn_sched_" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

std::vector<std::string> campaign_args(const std::string& store) {
    return {"campaign", "--fleets", kFleets, "--hours", kHours,
            "--seed",   kSeed,     "--store", store};
}

std::vector<std::string> distributed_args(const std::string& store,
                                          const char* workers) {
    auto args = campaign_args(store);
    args.push_back("--distributed");
    args.push_back("--workers");
    args.push_back(workers);
    return args;
}

/// The ground truth every distributed run must reproduce byte for byte.
RunResult run_single_process_baseline(const std::string& scratch,
                                      const std::string& store) {
    auto args = campaign_args(store);
    args.push_back("--jobs");
    args.push_back("1");
    RunResult baseline = run_qrn(scratch, args);
    EXPECT_EQ(baseline.exit_code, 0) << baseline.err;
    return baseline;
}

/// Seeds `store` with the exact plan the coordinator would write, so a
/// standalone worker can be exercised without a coordinator process.
void write_plan_for_campaign(const std::string& store) {
    sched::CampaignPlan shape;
    shape.policy = "nominal";
    shape.odd = "urban";
    shape.seed = 11;
    shape.fleets = 4;
    shape.hours_per_fleet = 20.0;
    const sim::CampaignConfig config = sched::config_from_plan(shape);
    sched::write_plan(store,
                      sched::make_plan(shape.policy, shape.odd, config,
                                       sched::campaign_inputs_digest()));
}

TEST(SchedE2e, DistributedMatchesSingleProcessBytes) {
    const auto scratch = scratch_for("bytes");
    const RunResult baseline =
        run_single_process_baseline(scratch, scratch + "/base");

    const RunResult dist =
        run_qrn(scratch, distributed_args(scratch + "/dist", "4"));
    ASSERT_EQ(dist.exit_code, 0) << dist.err;
    EXPECT_EQ(dist.out, baseline.out);
    EXPECT_EQ(shard_bytes(scratch + "/dist"), shard_bytes(scratch + "/base"));
    EXPECT_NE(dist.err.find("sched: verify ok"), std::string::npos) << dist.err;
}

TEST(SchedE2e, WorkerKilledMidShardHeals) {
    const auto scratch = scratch_for("mid_shard");
    const RunResult baseline =
        run_single_process_baseline(scratch, scratch + "/base");

    // Fleet 2's first execution dies mid-seal (garbage .tmp, SIGKILL-style
    // _Exit). The coordinator must respawn the worker, re-dispatch the
    // node, and still converge on the baseline bytes.
    const std::string marker = scratch + "/mid_shard.fired";
    const RunResult dist =
        run_qrn(scratch, distributed_args(scratch + "/dist", "4"),
                {{"QRN_SCHED_FAULT_MID_SHARD", "2:" + marker}});
    ASSERT_EQ(dist.exit_code, 0) << dist.err;
    EXPECT_TRUE(std::filesystem::exists(marker)) << "fault never fired";
    EXPECT_EQ(dist.out, baseline.out);
    EXPECT_EQ(shard_bytes(scratch + "/dist"), shard_bytes(scratch + "/base"));
    // The death is visible in the stats line, not hidden by the retry.
    EXPECT_EQ(dist.err.find("0 worker failure(s)"), std::string::npos)
        << dist.err;
}

TEST(SchedE2e, WorkerKilledMidLeaseThenStolen) {
    const auto scratch = scratch_for("mid_lease");
    const RunResult baseline =
        run_single_process_baseline(scratch, scratch + "/base");

    // A standalone worker on a pre-seeded plan dies while *holding* fleet
    // 1's lease (after sealing fleet 0), leaving a live-looking lease file
    // behind with a short TTL.
    const std::string store = scratch + "/dist";
    write_plan_for_campaign(store);
    const std::string marker = scratch + "/mid_lease.fired";
    const RunResult worker = run_qrn(
        scratch,
        {"sched", "worker", "--store", store, "--ttl-ms", "500"},
        {{"QRN_SCHED_FAULT_MID_LEASE", "1:" + marker}});
    ASSERT_EQ(worker.exit_code, 137) << worker.err;
    ASSERT_TRUE(std::filesystem::exists(
        store::lease_path(sched::lease_dir(store), "fleet-00001")))
        << "the crash must leave its lease behind";
    ASSERT_EQ(shard_bytes(store).size(), 1u) << "fleet 0 sealed, fleet 1 not";

    // Once the TTL lapses, the coordinator steals the orphaned lease and
    // finishes the campaign on the same store.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    const RunResult dist = run_qrn(scratch, distributed_args(store, "2"));
    ASSERT_EQ(dist.exit_code, 0) << dist.err;
    EXPECT_EQ(dist.out, baseline.out);
    EXPECT_EQ(shard_bytes(store), shard_bytes(scratch + "/base"));
    EXPECT_NE(dist.err.find("steal(s)"), std::string::npos) << dist.err;
    EXPECT_EQ(dist.err.find("0 steal(s)"), std::string::npos) << dist.err;
}

TEST(SchedE2e, CoordinatorKilledBeforeAggregateResumes) {
    const auto scratch = scratch_for("coord_crash");
    const RunResult baseline =
        run_single_process_baseline(scratch, scratch + "/base");

    // All shards seal, then the coordinator dies before aggregation ever
    // runs: no evidence on stdout, no final verdict.
    const std::string store = scratch + "/dist";
    const RunResult crashed =
        run_qrn(scratch, distributed_args(store, "4"),
                {{"QRN_SCHED_FAULT_COORD_BEFORE_AGGREGATE", "1"}});
    ASSERT_EQ(crashed.exit_code, 137) << crashed.err;
    EXPECT_TRUE(crashed.out.empty()) << "died before aggregation";

    // A plain re-run finds the plan, reuses every sealed node, aggregates,
    // and emits the baseline bytes.
    const RunResult resumed = run_qrn(scratch, distributed_args(store, "4"));
    ASSERT_EQ(resumed.exit_code, 0) << resumed.err;
    EXPECT_EQ(resumed.out, baseline.out);
    EXPECT_EQ(shard_bytes(store), shard_bytes(scratch + "/base"));
    EXPECT_NE(resumed.err.find("4 reused"), std::string::npos) << resumed.err;
}

TEST(SchedE2e, OverBudgetDagIsRejectedAtExitOne) {
    const auto scratch = scratch_for("budget");
    auto args = distributed_args(scratch + "/dist", "2");
    args.push_back("--sched-max-nodes");
    args.push_back("3");  // 4 fleets + 3 spine nodes = 7 > 3
    const RunResult rejected = run_qrn(scratch, args);
    EXPECT_EQ(rejected.exit_code, 1);
    EXPECT_NE(rejected.err.find("over budget"), std::string::npos)
        << rejected.err;
    // Rejection happens before any work: the store was not even created.
    EXPECT_FALSE(std::filesystem::exists(scratch + "/dist"));
}

TEST(SchedE2e, StandaloneWorkerCompletesPlanAlone) {
    const auto scratch = scratch_for("standalone");
    run_single_process_baseline(scratch, scratch + "/base");

    // No coordinator at all: a lone externally-launched worker drains the
    // pre-seeded plan and seals the identical shard set.
    const std::string store = scratch + "/dist";
    write_plan_for_campaign(store);
    const RunResult worker =
        run_qrn(scratch, {"sched", "worker", "--store", store});
    ASSERT_EQ(worker.exit_code, 0) << worker.err;
    EXPECT_EQ(shard_bytes(store), shard_bytes(scratch + "/base"));
}

TEST(SchedE2e, StandaloneWorkerCountsAStealOnlyAsASteal) {
    // docs/OBSERVABILITY.md: sched.leases_acquired counts fresh claims and
    // sched.leases_stolen takes-overs, in workers as in the coordinator.
    const auto scratch = scratch_for("worker_metrics");
    const std::string store = scratch + "/dist";
    write_plan_for_campaign(store);
    const std::string leases = sched::lease_dir(store);
    std::filesystem::create_directories(leases);
    // Fleet 2's lease was left by a holder whose TTL ran out long ago.
    store::overwrite_lease(leases, store::Lease{"fleet-00002", "dead", 0, 1, 1});

    const std::string metrics = scratch + "/worker-metrics.json";
    const RunResult worker = run_qrn(
        scratch, {"sched", "worker", "--store", store, "--metrics", metrics});
    ASSERT_EQ(worker.exit_code, 0) << worker.err;
    std::map<std::string, double> counters;
    const json::Value doc = json::parse(read_file_bytes(metrics));
    for (const json::Value& counter : doc.at("counters").as_array()) {
        counters[counter.at("name").as_string()] = counter.at("value").as_number();
    }
    EXPECT_EQ(counters["sched.leases_acquired"], 3.0);
    EXPECT_EQ(counters["sched.leases_stolen"], 1.0);
}

TEST(SchedE2e, CoordinatorCountsRenewalsAndReleasesEveryLease) {
    // A 3 ms TTL renews every millisecond. A 100000-hour fleet takes
    // 0.13 s to simulate (RelWithDebInfo, 4-vCPU VM), so each lease is
    // held for about 130 renewal periods: only a host that kept the
    // renewal thread off the CPU for a whole fleet would see no renewal
    // (a 20-hour fleet lasts about one period). The count reaches the
    // manifest through CoordinatorStats once the renewal thread has been
    // joined.
    const auto scratch = scratch_for("renewals");
    const std::string store = scratch + "/dist";
    const std::string metrics = scratch + "/coord-metrics.json";
    const std::vector<std::string> args{
        "campaign", "--fleets", kFleets, "--hours", "100000", "--seed", kSeed,
        "--store", store, "--distributed", "--workers", "2",
        "--sched-ttl-ms", "3", "--metrics", metrics};
    const RunResult dist = run_qrn(scratch, args);
    ASSERT_EQ(dist.exit_code, 0) << dist.err;
    std::map<std::string, double> counters;
    const json::Value doc = json::parse(read_file_bytes(metrics));
    for (const json::Value& counter : doc.at("counters").as_array()) {
        counters[counter.at("name").as_string()] = counter.at("value").as_number();
    }
    EXPECT_GT(counters["sched.leases_renewed"], 0.0);
    EXPECT_EQ(counters["sched.leases_acquired"], 4.0);
    EXPECT_TRUE(std::filesystem::is_empty(sched::lease_dir(store)));
}

TEST(SchedE2e, WorkerWithoutAPlanExitsIo) {
    const auto scratch = scratch_for("no_plan");
    const RunResult worker = run_qrn(
        scratch, {"sched", "worker", "--store", scratch + "/never-planned"});
    EXPECT_EQ(worker.exit_code, 3);
    EXPECT_NE(worker.err.find("no campaign plan"), std::string::npos)
        << worker.err;
}

}  // namespace
