// serve_mixed: the serve daemon in process (serve::Server on a Unix
// socket, classification at jobs = 2), driven through serve::Client.
//   (a) Open loop: two connections at a fixed rate of 1024-record
//       classify batches, about 40% of capacity, with every 64th request a
//       Verify (reads beside writes). Latency runs from each request's due
//       time, so a stall also counts against the requests queued behind it.
//   (b) Closed loop: two connections sending 64-record batches back to
//       back (saturation).
//   (c) Closed loop: one connection, the serial reference for (b).
// Phase (a) loads qrn classification, the live shard append and seals;
// (b) and (c) load the per-request path: frame codec, bounded queue and
// dispatcher handoff. sim and sched do nothing here.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "qrn/allocation.h"
#include "qrn/classification.h"
#include "qrn/contribution.h"
#include "qrn/injury_risk.h"
#include "qrn/serialize.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "store/aggregate.h"
#include "store/shard.h"
#include "store/store.h"

namespace qrn::bench {

namespace {

using serve::Client;
using serve::ClassifyRow;

constexpr unsigned kServeJobs = 2;
constexpr unsigned kConnections = 2;
constexpr std::size_t kOpenBatch = 1024;
constexpr std::size_t kClosedBatch = 64;
constexpr double kOpenRate = 400.0;  ///< Requests/s over both connections.
constexpr std::uint64_t kVerifyEvery = 64;
constexpr std::uint64_t kShardRoll = 16384;
constexpr double kHoursPerRecord = 0.01;
constexpr double kConfidence = 0.95;
/// Closed phases are timed in spans of this many consecutive Ok batches.
constexpr std::size_t kSpanBatches = 500;

/// stream_incident's fields other than the timestamp repeat with this
/// period (the lcm of its moduli 2, 3, 6, 7, 40 and 64), and neither
/// classifier reads the timestamp, so one period of direct answers checks
/// every reply row.
constexpr std::uint64_t kStreamPeriod = 6720;

/// The direct classifier's answer for every residue of the stream.
class ExpectedRows {
public:
    ExpectedRows() : rows_(kStreamPeriod) {
        const auto tree = ClassificationTree::paper_example();
        const auto types = IncidentTypeSet::paper_vru_example();
        std::unordered_map<std::string, std::uint16_t> leaf_index;
        const auto leaves = tree.leaves();
        for (std::size_t i = 0; i < leaves.size(); ++i) {
            leaf_index.emplace(leaves[i].joined(), static_cast<std::uint16_t>(i));
        }
        for (std::uint64_t i = 0; i < kStreamPeriod; ++i) {
            const Incident incident = serve::stream_incident(i);
            rows_[i].leaf = leaf_index.at(tree.classify(incident).joined());
            const auto type = types.classify(incident);
            rows_[i].type = type ? static_cast<std::uint16_t>(*type) : serve::kNoType;
        }
    }

    [[nodiscard]] bool matches(std::uint64_t first, std::size_t count,
                               const std::vector<ClassifyRow>& rows) const {
        if (rows.size() != count) return false;
        for (std::size_t j = 0; j < count; ++j) {
            if (!(rows[j] == rows_[(first + j) % kStreamPeriod])) return false;
        }
        return true;
    }

private:
    std::vector<ClassifyRow> rows_;
};

std::vector<Incident> make_batch(std::uint64_t first, std::size_t count) {
    std::vector<Incident> batch;
    batch.reserve(count);
    for (std::size_t i = 0; i < count; ++i) batch.push_back(serve::stream_incident(first + i));
    return batch;
}

/// The Verify reply the batch CLI would print for the first `shards`
/// sealed shards of a serve store.
class VerifyReference {
public:
    VerifyReference() : norm_(RiskNorm::paper_example()), types_(IncidentTypeSet::paper_vru_example()) {
        const InjuryRiskModel model;
        const auto matrix = ContributionMatrix::from_injury_model(norm_, types_, model, {0.6, 0.4});
        problem_.emplace(norm_, types_, matrix);
        allocation_.emplace(allocate_water_filling(*problem_));
    }

    [[nodiscard]] std::vector<TypeEvidence> sealed_evidence(const std::string& dir,
                                                            std::uint64_t shards) const {
        const store::Store st(dir);
        std::vector<store::ShardRef> refs;
        for (const auto& entry : st.entries()) {
            if (entry.fleet_index < shards) refs.push_back({entry.fleet_index, st.shard_path(entry)});
        }
        return store::aggregate_evidence(refs, types_, 1).evidence;
    }

    [[nodiscard]] VerificationReport report(const std::vector<TypeEvidence>& evidence) const {
        const SpanScope span("qrn.verify_against_evidence");
        return verify_against_evidence(*problem_, *allocation_, evidence, kConfidence);
    }

    [[nodiscard]] std::string json(const std::vector<TypeEvidence>& evidence) const {
        return to_json(report(evidence_from_json(evidence_to_json(evidence)))).dump(2) + "\n";
    }

private:
    RiskNorm norm_;
    IncidentTypeSet types_;
    std::optional<AllocationProblem> problem_;
    std::optional<Allocation> allocation_;
};

std::unique_ptr<serve::Service> make_service(const std::string& store_dir) {
    serve::ServiceConfig config;
    config.store_dir = store_dir;
    config.shard_roll = kShardRoll;
    config.jobs = kServeJobs;
    return std::make_unique<serve::Service>(RiskNorm::paper_example(),
                                            IncidentTypeSet::paper_vru_example(), config);
}

/// One daemon on a fresh store plus its client connections.
struct Rig {
    std::string dir;
    std::string socket;
    std::unique_ptr<serve::Server> server;
    std::vector<Client> clients;
    std::uint64_t accepted = 0;  ///< Records the daemon answered Ok.
};

/// Unix socket paths are limited to ~108 bytes; a path relative to the
/// working directory keeps it short whatever the checkout's location.
std::string socket_path(const std::string& dir) {
    const std::string path =
        std::filesystem::relative(dir + "/serve.sock", std::filesystem::current_path()).string();
    if (path.size() > 100) throw std::runtime_error("socket path too long: " + path);
    return path;
}

/// Daemon start, connects, and priming batches until the first shard
/// seals (so a Verify always has evidence to report on).
void start_rig(Rig& rig, std::atomic<std::uint64_t>& cursor, const ExpectedRows& expected,
               Outcome& out) {
    const SpanScope span("bench.serve_setup");
    rig.socket = socket_path(rig.dir);
    {
        const SpanScope start("serve.Server.start");
        rig.server = std::make_unique<serve::Server>(make_service(rig.dir + "/store"),
                                                     serve::ServerConfig{rig.socket, 0, 64, 50, 10});
        rig.server->start();
    }
    for (unsigned c = 0; c < kConnections; ++c) {
        rig.clients.push_back(Client::connect_unix(rig.socket));
    }
    while (true) {
        const std::uint64_t first = cursor.fetch_add(kOpenBatch);
        const auto reply = rig.clients[0].classify(kOpenBatch * kHoursPerRecord,
                                                   make_batch(first, kOpenBatch));
        if (!out.op(reply.status == serve::Status::Ok &&
                        expected.matches(first, kOpenBatch, reply.rows),
                    "serve_mixed: priming batch rejected or misclassified")) {
            throw std::runtime_error("serve_mixed: priming failed");
        }
        rig.accepted += kOpenBatch;
        if (rig.accepted >= kShardRoll) break;
    }
}

void stop_rig(Rig& rig) {
    for (auto& client : rig.clients) client.close();
    rig.clients.clear();
    if (rig.server) rig.server->drain();
    rig.server.reset();
}

/// Per-connection tallies; merged after the threads join.
struct Tally {
    std::vector<double> classify_us;
    std::vector<double> verify_us;
    std::vector<double> late_us;
    std::vector<double> rtt_us;
    std::vector<double> done_s;  ///< When each closed-loop batch came back Ok.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t busy = 0;
    std::uint64_t records = 0;
    std::string error;

    void merge(const Tally& other) {
        for (auto [to, from] : {std::pair{&classify_us, &other.classify_us},
                                std::pair{&verify_us, &other.verify_us},
                                std::pair{&late_us, &other.late_us},
                                std::pair{&rtt_us, &other.rtt_us},
                                std::pair{&done_s, &other.done_s}}) {
            to->insert(to->end(), from->begin(), from->end());
        }
        attempted += other.attempted;
        failed += other.failed;
        busy += other.busy;
        records += other.records;
        if (error.empty()) error = other.error;
    }
};

void note_failure(Tally& tally, serve::Status status, const std::string& what) {
    ++tally.failed;
    if (status == serve::Status::Busy) ++tally.busy;
    if (tally.error.empty()) tally.error = what;
}

/// Open loop on connection `conn`: global request k is due at
/// t0 + k / rate, and connection c sends every k with k % conns == c.
void open_loop(Client& client, unsigned conn, double t0, std::uint64_t total,
               std::atomic<std::uint64_t>& cursor, const ExpectedRows& expected,
               Tally& tally) {
    for (std::uint64_t k = conn; k < total; k += kConnections) {
        const double due = t0 + static_cast<double>(k) / kOpenRate;
        const bool verify = k % kVerifyEvery == kVerifyEvery - 1;
        std::uint64_t first = 0;
        std::vector<Incident> batch;
        if (!verify) {
            first = cursor.fetch_add(kOpenBatch);
            batch = make_batch(first, kOpenBatch);
        }
        const double wait = due - now_s();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        tally.late_us.push_back(std::max(0.0, now_s() - due) * 1e6);
        ++tally.attempted;
        if (verify) {
            const SpanScope span("serve.Client.verify");
            const auto reply = client.verify(kConfidence);
            tally.verify_us.push_back((now_s() - due) * 1e6);
            if (reply.status != serve::Status::Ok) {
                note_failure(tally, reply.status, "serve_mixed: verify failed: " + reply.payload);
            }
        } else {
            const SpanScope span("serve.Client.classify");
            const auto reply = client.classify(kOpenBatch * kHoursPerRecord, batch);
            tally.classify_us.push_back((now_s() - due) * 1e6);
            if (reply.status == serve::Status::Ok && expected.matches(first, kOpenBatch, reply.rows)) {
                tally.records += kOpenBatch;
            } else {
                note_failure(tally, reply.status,
                             "serve_mixed: classify reply rejected, short or misclassified");
            }
        }
    }
}

/// Closed loop: back-to-back 64-record batches until `end`.
void closed_loop(Client& client, double end, std::atomic<std::uint64_t>& cursor,
                 const ExpectedRows& expected, Tally& tally) {
    while (now_s() < end) {
        const std::uint64_t first = cursor.fetch_add(kClosedBatch);
        const std::vector<Incident> batch = make_batch(first, kClosedBatch);
        ++tally.attempted;
        const double start = now_s();
        const SpanScope span("serve.Client.classify");
        const auto reply = client.classify(kClosedBatch * kHoursPerRecord, batch);
        tally.rtt_us.push_back((now_s() - start) * 1e6);
        if (reply.status == serve::Status::Ok && expected.matches(first, kClosedBatch, reply.rows)) {
            tally.records += kClosedBatch;
            tally.done_s.push_back(now_s());
        } else {
            note_failure(tally, reply.status,
                         "serve_mixed: classify reply rejected, short or misclassified");
        }
    }
}

/// Records/s of a closed phase that ran `seconds`: the phase is cut into
/// spans of kSpanBatches consecutive Ok replies, and the rate is that of
/// the fastest tenth of the spans, for the reason fast_tenth gives. A
/// phase too short for ten spans reports its mean rate.
double closed_rate(Tally& tally, double seconds) {
    std::sort(tally.done_s.begin(), tally.done_s.end());
    std::vector<double> span_s;
    for (std::size_t i = kSpanBatches; i < tally.done_s.size(); i += kSpanBatches) {
        span_s.push_back(tally.done_s[i] - tally.done_s[i - kSpanBatches]);
    }
    if (span_s.size() < 10) return static_cast<double>(tally.records) / seconds;
    return static_cast<double>(kSpanBatches * kClosedBatch) / fast_tenth(span_s);
}

/// Runs `body(conn, tally)` on `conns` threads and merges the tallies. A
/// connection that throws (a socket error) ends with one failed request.
template <typename Body>
Tally on_connections(unsigned conns, Body body) {
    std::vector<Tally> tallies(conns);
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
            try {
                body(c, tallies[c]);
            } catch (const std::exception& error) {
                ++tallies[c].attempted;
                note_failure(tallies[c], serve::Status::Error,
                             std::string("serve_mixed: connection failed: ") + error.what());
            }
        });
    }
    for (auto& thread : threads) thread.join();
    Tally all;
    for (const auto& tally : tallies) all.merge(tally);
    return all;
}

struct ServeRun {
    Tally open;
    Tally closed2;
    Tally closed1;
    double rate2 = 0.0;  ///< Records/s, phase (b).
    double rate1 = 0.0;  ///< Records/s, phase (c).
};

/// Phases (a)-(c) on a started rig, then the output checks: the Verify
/// JSON against the sealed prefix, and after drain every shard verified
/// and every accepted record present.
ServeRun run_phases(Rig& rig, double open_s, double closed2_s, double closed1_s,
                    std::atomic<std::uint64_t>& cursor, const ExpectedRows& expected,
                    const VerifyReference& verify_ref, Outcome& out) {
    ServeRun s;
    {
        const SpanScope span("bench.serve_open_loop");
        const auto total = static_cast<std::uint64_t>(open_s * kOpenRate);
        const double t0 = now_s() + 0.005;
        s.open = on_connections(kConnections, [&](unsigned c, Tally& tally) {
            open_loop(rig.clients[c], c, t0, total, cursor, expected, tally);
        });
    }
    const auto closed = [&](unsigned conns, double seconds, Tally& tally) {
        const SpanScope span(conns == 1 ? "bench.serve_closed_loop[1]" : "bench.serve_closed_loop[2]");
        const double start = now_s();
        tally = on_connections(conns, [&](unsigned c, Tally& t) {
            closed_loop(rig.clients[c], start + seconds, cursor, expected, t);
        });
        return closed_rate(tally, now_s() - start);
    };
    s.rate2 = closed(kConnections, closed2_s, s.closed2);
    s.rate1 = closed(1, closed1_s, s.closed1);

    for (const Tally* tally : {&s.open, &s.closed2, &s.closed1}) {
        out.ops(tally->attempted);
        for (std::uint64_t i = 0; i < tally->failed; ++i) out.fail(tally->error);
        rig.accepted += tally->records;
    }

    // The Verify reply must be the batch CLI's report on the sealed prefix.
    const auto status = rig.clients[0].status();
    const auto verify = rig.clients[0].verify(kConfidence);
    out.op(status.status == serve::Status::Ok && verify.status == serve::Status::Ok &&
               verify.payload ==
                   verify_ref.json(verify_ref.sealed_evidence(rig.dir + "/store",
                                                              status.state.shards_sealed)),
           "serve_mixed: Verify JSON differs from the report on the sealed prefix");

    stop_rig(rig);
    const store::Store st(rig.dir + "/store");
    std::uint64_t records = 0;
    bool shards_ok = true;
    for (const auto& entry : st.entries()) {
        try {
            records += store::verify_shard(st.shard_path(entry)).records;
        } catch (const std::exception&) {
            shards_ok = false;
        }
    }
    out.op(shards_ok && records == rig.accepted,
           "serve_mixed: a drained shard failed verification or records went missing");
    return s;
}

double ms(double us) { return us / 1e3; }

}  // namespace

void run_serve_mixed(const Options& options, Outcome& out) {
    const ExpectedRows expected;
    const VerifyReference verify_ref;
    std::atomic<std::uint64_t> cursor{options.seed * 104729};

    std::vector<double> setups;
    Rig rig;
    for (int i = 0; i < kSetupReps; ++i) {
        rig = Rig{};
        rig.dir = fresh_dir(options, "serve");
        setups.push_back(time_s([&] { start_rig(rig, cursor, expected, out); }));
        if (i + 1 < kSetupReps) {
            stop_rig(rig);
            remove_tree(rig.dir);
        }
    }

    const double t = options.seconds;
    const ServeRun s = run_phases(rig, t * 0.5, t * 0.25, t * 0.25, cursor, expected, verify_ref, out);
    remove_tree(rig.dir);

    std::printf("# serve_mixed: classify p50 %.1f us, p90 %.1f us, p99 %.1f us (n=%zu); "
                "verify p50 %.1f us (n=%zu); generator late p99 %.1f us; busy %llu\n",
                quantile(s.open.classify_us, 0.5), quantile(s.open.classify_us, 0.9),
                quantile(s.open.classify_us, 0.99), s.open.classify_us.size(),
                quantile(s.open.verify_us, 0.5), s.open.verify_us.size(),
                quantile(s.open.late_us, 0.99),
                static_cast<unsigned long long>(s.open.busy + s.closed2.busy + s.closed1.busy));
    out.metric("setup_s", median(setups), "s");
    out.metric("primary_per_s", s.rate2, "1/s");
    out.metric("secondary_per_s", s.rate1, "1/s");
    out.metric("latency_ms", ms(quantile(s.open.classify_us, 0.5)), "ms");
}

void trace_serve_mixed(const Options& options, double budget_s, Outcome& out) {
    const ExpectedRows expected;
    const VerifyReference verify_ref;
    std::atomic<std::uint64_t> cursor{options.seed * 104729};
    const int reps = options.tiny ? 20 : 200;

    // Direct calls into the Service and the classifier, no socket.
    double service_64_us = 0.0;
    {
        const std::string dir = fresh_dir(options, "service-probe");
        auto service = make_service(dir + "/store");
        const auto time_batches = [&](std::size_t size) {
            std::vector<double> t;
            for (int i = 0; i < reps; ++i) {
                serve::ClassifyRequest request{size * kHoursPerRecord,
                                               make_batch(cursor.fetch_add(size), size)};
                t.push_back(time_s([&] {
                    const SpanScope span("serve.Service.classify_batch");
                    (void)service->classify_batch(request);
                }));
            }
            return median(t) * 1e6;
        };
        out.metric("serve.service_batch_us", time_batches(kOpenBatch), "us");
        service_64_us = time_batches(kClosedBatch);

        std::vector<double> t_verify;
        for (int i = 0; i < reps / 4; ++i) {
            t_verify.push_back(time_s([&] {
                const SpanScope span("serve.Service.verify_json");
                (void)service->verify_json(kConfidence);
            }));
        }
        out.metric("serve.service_verify_us", median(t_verify) * 1e6, "us");
        service->finish();
        const auto evidence = verify_ref.sealed_evidence(dir + "/store", ~std::uint64_t{0});
        std::vector<double> t_qrn_verify;
        for (int i = 0; i < reps / 4; ++i) {
            t_qrn_verify.push_back(time_s([&] { (void)verify_ref.report(evidence); }));
        }
        out.metric("qrn.verify_us", median(t_qrn_verify) * 1e6, "us");
        service.reset();
        remove_tree(dir);

        const auto types = IncidentTypeSet::paper_vru_example();
        const std::vector<Incident> batch = make_batch(options.seed * 104729, kStreamPeriod);
        std::vector<double> t_classify;
        std::size_t matched = 0;
        for (int i = 0; i < 20; ++i) {
            t_classify.push_back(time_s([&] {
                const SpanScope span("qrn.IncidentTypeSet.classify");
                for (const auto& incident : batch) matched += types.classify(incident).has_value();
            }));
        }
        out.op(matched > 0, "serve_mixed: no stream record matched an incident type");
        out.metric("qrn.classify_ns_per_record",
                   median(t_classify) * 1e9 / static_cast<double>(batch.size()), "ns");
    }

    // The daemon, traced, over the three phases of the workload.
    Rig rig;
    rig.dir = fresh_dir(options, "serve");
    start_rig(rig, cursor, expected, out);
    const ServeRun s =
        run_phases(rig, budget_s * 0.5, budget_s * 0.25, budget_s * 0.25, cursor, expected, verify_ref, out);
    remove_tree(rig.dir);

    const ObsTimer seal = obs_timer("serve.seal_ns");
    out.metric("serve.seal_us",
               seal.count == 0 ? 0.0
                               : static_cast<double>(seal.total_ns) / 1e3 /
                                     static_cast<double>(seal.count),
               "us");
    out.metric("serve.transport_us", median(s.closed1.rtt_us) - service_64_us, "us");
    out.metric("serve.classify_p90_us", quantile(s.open.classify_us, 0.9), "us");
    out.metric("serve.classify_p99_us", quantile(s.open.classify_us, 0.99), "us");
    out.metric("serve.classify_samples", static_cast<double>(s.open.classify_us.size()), "count");
    out.metric("serve.verify_p50_us", quantile(s.open.verify_us, 0.5), "us");
    out.metric("serve.verify_samples", static_cast<double>(s.open.verify_us.size()), "count");
    out.metric("serve.generator_late_us", quantile(s.open.late_us, 0.99), "us");
    const std::uint64_t attempts = s.open.attempted + s.closed2.attempted + s.closed1.attempted;
    out.metric("serve.busy_replies_per_attempt",
               static_cast<double>(s.open.busy + s.closed2.busy + s.closed1.busy) /
                   static_cast<double>(std::max<std::uint64_t>(attempts, 1)),
               "ratio");
}

}  // namespace qrn::bench
