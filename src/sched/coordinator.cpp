#include "sched/coordinator.h"

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <map>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

#include "exec/guarded.h"
#include "obs/metrics.h"
#include "sched/claimer.h"
#include "store/campaign_store.h"
#include "store/lease.h"
#include "store/store.h"

namespace qrn::sched {

namespace {

/// Attached workers are this same binary, re-entered as `qrn sched worker`.
constexpr const char* kWorkerBinary = "/proc/self/exe";
/// "fail" replies (or "ok"s whose shard does not verify) one node may
/// collect before the campaign errors out.
constexpr unsigned kMaxNodeRetries = 2;
/// Times one worker slot is respawned after its process dies.
constexpr unsigned kMaxRespawnsPerWorker = 3;

void declare_sched_metrics() {
    if (!obs::enabled()) return;
    obs::add_counter("sched.nodes_total", 0);
    obs::add_counter("sched.nodes_dispatched", 0);
    obs::add_counter("sched.nodes_completed", 0);
    obs::add_counter("sched.nodes_reused", 0);
    obs::add_counter("sched.leases_acquired", 0);
    obs::add_counter("sched.leases_stolen", 0);
    obs::add_counter("sched.leases_renewed", 0);
    obs::add_counter("sched.workers_spawned", 0);
    obs::add_counter("sched.worker_respawns", 0);
    obs::add_counter("sched.worker_failures", 0);
    obs::declare_timer("sched.dispatch_ns");
    obs::declare_timer("sched.worker_wait_ns");
    obs::declare_timer("sched.node_exec_ns");
}

/// Keeps every lease the coordinator holds alive: a renewal thread
/// re-stamps each held lease at TTL/3 so external workers only steal from
/// a coordinator that actually died (or stalled past the TTL).
class LeaseBoard {
public:
    LeaseBoard(std::string dir, std::string owner, std::uint64_t ttl_ms)
        : dir_(std::move(dir)), owner_(std::move(owner)), ttl_ms_(ttl_ms) {}

    ~LeaseBoard() { stop(); }

    LeaseBoard(const LeaseBoard&) = delete;
    LeaseBoard& operator=(const LeaseBoard&) = delete;

    void start() {
        renewer_ = std::thread([this] { renew_loop(); });
    }

    /// Registers a lease this coordinator now holds (just acquired or
    /// stolen) so the renewal thread keeps it fresh.
    void track(const std::string& node, std::uint64_t generation) {
        state_.lock()->held[node] = generation;
    }

    /// Stops renewing and removes the node's lease file.
    void release(const std::string& node) {
        state_.lock()->held.erase(node);
        store::release_lease(dir_, node);
    }

    /// Stops and joins the renewal thread; returns how many lease renewals
    /// it wrote over the board's life.
    std::uint64_t stop() {
        state_.lock()->stop = true;
        wake_.notify_all();
        if (renewer_.joinable()) renewer_.join();
        return state_.lock()->renewed;
    }

private:
    struct State {
        std::map<std::string, std::uint64_t> held;
        bool stop = false;
        std::uint64_t renewed = 0;
    };

    void renew_loop() {
        auto state = state_.lock();
        const auto period =
            std::chrono::milliseconds(std::max<std::uint64_t>(1, ttl_ms_ / 3));
        while (!state->stop) {
            state.wait_for(wake_, period);
            if (state->stop) break;
            for (auto& [node, generation] : state->held) {
                ++generation;
                store::overwrite_lease(
                    dir_, store::Lease{node, owner_, store::lease_now_ms(),
                                       ttl_ms_, generation});
                ++state->renewed;
            }
        }
    }

    const std::string dir_;
    const std::string owner_;
    const std::uint64_t ttl_ms_;

    exec::Guarded<State> state_;
    std::condition_variable wake_;
    std::thread renewer_;
};

/// One attached worker child and the pipe plumbing around it.
struct WorkerProc {
    pid_t pid = -1;
    int to_child = -1;    ///< Write end of the child's stdin.
    int from_child = -1;  ///< Read end of the child's stdout.
    std::string buffer;   ///< Partial reply line carried between reads.
    std::optional<std::uint64_t> in_flight;  ///< Fleet index being run.
    unsigned respawns = 0;
    bool alive = false;
    std::uint64_t idle_since_ns = 0;
};

/// Pre-built execv argument block: the child must not allocate between
/// fork and exec (another thread may hold the allocator lock).
struct ExecSpec {
    std::vector<std::string> args;
    std::vector<char*> argv;

    explicit ExecSpec(const CoordinatorConfig& config) {
        args = {"qrn",     "sched",          "worker",
                "--store", config.store_dir, "--attached"};
        argv.reserve(args.size() + 1);
        for (std::string& arg : args) argv.push_back(arg.data());
        argv.push_back(nullptr);
    }
};

void close_fd(int& fd) {
    if (fd >= 0) {
        ::close(fd);
        fd = -1;
    }
}

bool spawn_worker(const ExecSpec& spec, WorkerProc& worker) {
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    if (::pipe(to_child) != 0) return false;
    if (::pipe(from_child) != 0) {
        close_fd(to_child[0]);
        close_fd(to_child[1]);
        return false;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        close_fd(to_child[0]);
        close_fd(to_child[1]);
        close_fd(from_child[0]);
        close_fd(from_child[1]);
        return false;
    }
    if (pid == 0) {
        // Child: only async-signal-safe calls until exec.
        ::dup2(to_child[0], 0);
        ::dup2(from_child[1], 1);
        ::close(to_child[0]);
        ::close(to_child[1]);
        ::close(from_child[0]);
        ::close(from_child[1]);
        ::execv(kWorkerBinary, spec.argv.data());
        ::_exit(127);
    }
    close_fd(to_child[0]);
    close_fd(from_child[1]);
    worker.pid = pid;
    worker.to_child = to_child[1];
    worker.from_child = from_child[0];
    worker.buffer.clear();
    worker.in_flight.reset();
    worker.alive = true;
    worker.idle_since_ns = obs::now_ns();
    return true;
}

/// Writes the whole line or reports the worker's pipe as broken.
bool write_line(int fd, const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
        if (n < 0) {
            if (errno == EINTR) continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/// Closes stdin pipes (workers exit on EOF), then reaps each child; any
/// child still running after `patience` polls gets SIGKILL. Used for both
/// clean shutdown and error unwinding.
void shutdown_workers(std::vector<WorkerProc>& workers) {
    for (WorkerProc& worker : workers) close_fd(worker.to_child);
    for (WorkerProc& worker : workers) {
        if (worker.pid < 0) continue;
        int status = 0;
        for (int patience = 0; patience < 100; ++patience) {
            const pid_t reaped = ::waitpid(worker.pid, &status, WNOHANG);
            if (reaped == worker.pid || (reaped < 0 && errno == ECHILD)) {
                worker.pid = -1;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        if (worker.pid >= 0) {
            ::kill(worker.pid, SIGKILL);
            ::waitpid(worker.pid, &status, 0);
            worker.pid = -1;
        }
        close_fd(worker.from_child);
        worker.alive = false;
    }
}

}  // namespace

CoordinatorStats run_coordinator(const CampaignPlan& plan, const Dag& dag,
                                 const CoordinatorConfig& config) {
    if (config.workers == 0) {
        throw SchedError("run_coordinator: need at least one worker");
    }
    declare_sched_metrics();

    store::Store db(config.store_dir);
    const std::string owner = "coord:" + std::to_string(::getpid());

    CoordinatorStats stats;
    stats.nodes_total = plan.fleets;
    if (obs::enabled()) obs::add_counter("sched.nodes_total", plan.fleets);

    Claimer claimer(plan, config.store_dir, owner, config.lease_ttl_ms,
                    dispatch_order(plan, dag));
    LeaseBoard board(lease_dir(config.store_dir), owner, config.lease_ttl_ms);
    std::vector<unsigned> retries(plan.fleets, 0);
    std::size_t done_count = 0;

    // Records a sealed shard in the store, which deletes any other shard
    // of the fleet (this process is the store's single recorder).
    const auto record = [&](const store::FleetShard& shard) {
        db.record(shard.entry);
        ++done_count;
    };

    // The next node to run: nodes found sealed on the way (a previous run,
    // or a standalone worker got there first) are recorded as reused, and
    // a newly claimed lease goes on the board.
    const auto next_to_run = [&] {
        std::optional<Claim> claim = claimer.next();
        for (; claim && claim->kind == Claim::Kind::Settled; claim = claimer.next()) {
            record(claim->shard);
            ++stats.nodes_reused;
            if (obs::enabled()) obs::add_counter("sched.nodes_reused", 1);
        }
        if (claim && claim->kind != Claim::Kind::Held) {
            ++(claim->kind == Claim::Kind::Stolen ? stats.leases_stolen
                                                  : stats.leases_acquired);
            board.track(plan_node_id(claim->fleet), claim->generation);
        }
        return claim;
    };

    // Before any worker exists: a store that holds every shard already
    // (a resume) is recorded whole, and nothing is spawned. Otherwise the
    // first node to run waits, put back, for the first idle worker.
    if (const std::optional<Claim> first = next_to_run()) {
        claimer.put_back(first->fleet);
    } else if (done_count == plan.fleets) {
        return stats;
    }

    // A dead worker must not kill the coordinator via a stdin write.
    using SignalHandler = void (*)(int);
    const SignalHandler prior_sigpipe = std::signal(SIGPIPE, SIG_IGN);

    board.start();
    const ExecSpec spec(config);
    std::vector<WorkerProc> workers(config.workers);
    for (WorkerProc& worker : workers) {
        if (spawn_worker(spec, worker)) {
            ++stats.workers_spawned;
            if (obs::enabled()) obs::add_counter("sched.workers_spawned", 1);
        }
    }
    // On success and on error alike. The renewal count is the board's own;
    // it is read once the renewer has been joined.
    const auto wind_down = [&] {
        shutdown_workers(workers);
        stats.leases_renewed = board.stop();
        if (obs::enabled()) obs::add_counter("sched.leases_renewed", stats.leases_renewed);
        std::signal(SIGPIPE, prior_sigpipe);
    };

    const auto on_worker_death = [&](std::size_t w) {
        WorkerProc& worker = workers[w];
        if (!worker.alive) return;
        worker.alive = false;
        close_fd(worker.to_child);
        close_fd(worker.from_child);
        if (worker.pid >= 0) {
            int status = 0;
            ::waitpid(worker.pid, &status, 0);
            worker.pid = -1;
        }
        ++stats.worker_failures;
        if (obs::enabled()) obs::add_counter("sched.worker_failures", 1);
        if (worker.in_flight) {
            // We still hold (and renew) the lease; the node just needs a
            // new pair of hands.
            claimer.put_back(*worker.in_flight);
            worker.in_flight.reset();
        }
        if (worker.respawns < kMaxRespawnsPerWorker) {
            const unsigned next = worker.respawns + 1;
            if (spawn_worker(spec, worker)) {
                worker.respawns = next;
                ++stats.worker_respawns;
                ++stats.workers_spawned;
                if (obs::enabled()) {
                    obs::add_counter("sched.worker_respawns", 1);
                    obs::add_counter("sched.workers_spawned", 1);
                }
            }
        }
    };

    const auto on_reply = [&](std::size_t w, std::string_view line) {
        WorkerProc& worker = workers[w];
        const std::size_t space = line.find(' ');
        const std::string_view verb = line.substr(0, space);
        std::string_view rest =
            space == std::string_view::npos ? "" : line.substr(space + 1);
        const std::size_t id_end = rest.find(' ');
        const std::string_view id = rest.substr(0, id_end);
        const std::optional<std::uint64_t> fleet = fleet_index_of(id);
        if (!fleet || *fleet >= plan.fleets || !worker.in_flight ||
            *worker.in_flight != *fleet) {
            throw SchedError("run_coordinator: protocol violation from worker " +
                             std::to_string(worker.pid) + ": '" +
                             std::string(line) + "'");
        }
        worker.in_flight.reset();
        worker.idle_since_ns = obs::now_ns();
        if (verb == "ok") {
            const store::FleetShard shard =
                store::check_fleet_shard(config.store_dir, *fleet, plan.nodes[*fleet].key);
            if (shard.state == store::ShardState::Sealed) {
                record(shard);
                board.release(std::string(id));
                ++stats.nodes_completed;
                if (obs::enabled()) obs::add_counter("sched.nodes_completed", 1);
                return;
            }
        }
        // "fail ..." or an "ok" whose shard does not verify: retry on
        // another slot, bounded.
        if (++retries[*fleet] > kMaxNodeRetries) {
            throw SchedError("run_coordinator: node " + std::string(id) +
                             " failed " + std::to_string(retries[*fleet]) +
                             " time(s); last reply: '" + std::string(line) +
                             "'");
        }
        claimer.put_back(*fleet);
    };

    try {
        while (done_count < plan.fleets) {
            // Dispatch: each idle worker gets the claimer's next node.
            {
                obs::ScopedTimer dispatch_timer("sched.dispatch_ns");
                for (std::size_t w = 0; w < workers.size(); ++w) {
                    WorkerProc& worker = workers[w];
                    if (!worker.alive || worker.in_flight) continue;
                    const std::optional<Claim> claim = next_to_run();
                    if (!claim) break;
                    if (!write_line(worker.to_child,
                                    "run " + plan_node_id(claim->fleet) + "\n")) {
                        claimer.put_back(claim->fleet);
                        on_worker_death(w);
                        continue;
                    }
                    if (obs::enabled()) {
                        obs::record_timer("sched.worker_wait_ns",
                                          obs::now_ns() - worker.idle_since_ns);
                        obs::add_counter("sched.nodes_dispatched", 1);
                    }
                    worker.in_flight = claim->fleet;
                    ++stats.nodes_dispatched;
                }
            }
            if (done_count == plan.fleets) break;

            std::vector<pollfd> fds;
            std::vector<std::size_t> fd_owner;
            for (std::size_t w = 0; w < workers.size(); ++w) {
                if (!workers[w].alive) continue;
                fds.push_back(pollfd{workers[w].from_child, POLLIN, 0});
                fd_owner.push_back(w);
            }
            if (fds.empty()) {
                throw SchedError(
                    "run_coordinator: every worker died (respawn budget "
                    "exhausted) with " +
                    std::to_string(plan.fleets - done_count) +
                    " node(s) unfinished");
            }
            if (::poll(fds.data(), fds.size(), 50) < 0 && errno != EINTR) {
                throw SchedError(std::string("run_coordinator: poll failed: ") +
                                 std::strerror(errno));
            }
            for (std::size_t at = 0; at < fds.size(); ++at) {
                if ((fds[at].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
                    continue;
                }
                const std::size_t w = fd_owner[at];
                char chunk[4096];
                const ssize_t n =
                    ::read(workers[w].from_child, chunk, sizeof chunk);
                if (n <= 0) {
                    if (n < 0 && errno == EINTR) continue;
                    on_worker_death(w);
                    continue;
                }
                workers[w].buffer.append(chunk, static_cast<std::size_t>(n));
                std::size_t eol = 0;
                while ((eol = workers[w].buffer.find('\n')) !=
                       std::string::npos) {
                    const std::string line = workers[w].buffer.substr(0, eol);
                    workers[w].buffer.erase(0, eol + 1);
                    if (!line.empty()) on_reply(w, line);
                }
            }
        }
    } catch (...) {
        wind_down();
        throw;
    }
    wind_down();
    return stats;
}

}  // namespace qrn::sched
