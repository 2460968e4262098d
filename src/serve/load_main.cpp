// qrn-serve-load: loopback load generator for a running qrn-serve daemon.
//
//   qrn-serve-load (--socket PATH | --port N) [--batches N]
//                  [--batch-size N] [--connections N] [--exposure H]
//                  [--start-record K] [--status] [--verify]
//
// Streams the canonical synthetic incident stream (serve/stream.h) as
// classify batches, retrying Busy backpressure replies, and prints a
// throughput summary. --start-record resumes the stream at a global
// record offset (what a crash-recovery client does after reading
// records_sealed from a Status reply). Exit codes: 0 ok, 1 usage,
// 2 a batch was finally rejected or a reply was malformed, 3 connect or
// socket failure.
#include <algorithm>
#include <cstdint>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.h"
#include "serve/stream.h"
#include "tools/parse.h"

namespace {

using qrn::serve::Client;
using qrn::serve::Status;

struct Options {
    std::string socket_path;
    std::uint16_t port = 0;
    bool use_tcp = false;
    std::uint64_t batches = 100;
    std::uint64_t batch_size = 256;
    unsigned connections = 1;
    double exposure_per_batch = 10.0;
    std::uint64_t start_record = 0;
    bool query_status = false;
    bool query_verify = false;
};

int usage() {
    std::cerr << "usage: qrn-serve-load (--socket PATH | --port N)\n"
              << "  [--batches N] [--batch-size N] [--connections N]\n"
              << "  [--exposure HOURS-PER-BATCH] [--start-record K]\n"
              << "  [--status] [--verify]\n";
    return 1;
}

Client connect(const Options& options) {
    return options.use_tcp ? Client::connect_tcp(options.port)
                           : Client::connect_unix(options.socket_path);
}

/// One worker's share of the batches: worker w sends batches w,
/// w + connections, w + 2*connections, ... so every batch is sent exactly
/// once whatever the concurrency.
struct WorkerResult {
    std::uint64_t records = 0;
    std::uint64_t busy_retries = 0;
    bool failed = false;
    std::string error;
};

WorkerResult run_worker(const Options& options, unsigned worker) {
    WorkerResult result;
    try {
        Client client = connect(options);
        for (std::uint64_t b = worker; b < options.batches;
             b += options.connections) {
            std::vector<qrn::Incident> batch;
            batch.reserve(options.batch_size);
            const std::uint64_t base =
                options.start_record + b * options.batch_size;
            for (std::uint64_t i = 0; i < options.batch_size; ++i) {
                batch.push_back(qrn::serve::stream_incident(base + i));
            }
            for (unsigned attempt = 0;; ++attempt) {
                const auto reply =
                    client.classify(options.exposure_per_batch, batch);
                if (reply.status == Status::Ok) {
                    if (reply.rows.size() != batch.size()) {
                        result.failed = true;
                        result.error = "reply row count mismatch";
                        return result;
                    }
                    result.records += batch.size();
                    break;
                }
                if (reply.status != Status::Busy || attempt >= 1000) {
                    result.failed = true;
                    result.error = reply.status == Status::Busy
                                       ? "still busy after 1000 retries"
                                       : "server error: " + reply.payload;
                    return result;
                }
                ++result.busy_retries;
                // Floor the server's hint at 1 ms: a zero hint would spin
                // this worker against a saturated daemon at socket speed.
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    std::max<std::uint32_t>(reply.retry_after_ms, 1)));
            }
        }
    } catch (const std::exception& error) {
        result.failed = true;
        result.error = error.what();
    }
    return result;
}

int run(const Options& options) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    std::vector<WorkerResult> results(options.connections);
    for (unsigned w = 1; w < options.connections; ++w) {
        workers.emplace_back(
            [&, w] { results[w] = run_worker(options, w); });
    }
    results[0] = run_worker(options, 0);
    for (auto& worker : workers) worker.join();
    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

    WorkerResult total;
    for (const auto& result : results) {
        total.records += result.records;
        total.busy_retries += result.busy_retries;
        if (result.failed && !total.failed) {
            total.failed = true;
            total.error = result.error;
        }
    }
    if (total.failed) {
        std::cerr << "qrn-serve-load: " << total.error << '\n';
        return 2;
    }
    std::cout << "qrn-serve-load: " << total.records << " records in "
              << options.batches << " batches over " << options.connections
              << " connection(s), " << total.busy_retries
              << " busy retries, "
              << static_cast<std::uint64_t>(
                     elapsed > 0.0 ? static_cast<double>(total.records) / elapsed
                                   : 0.0)
              << " records/s\n";

    if (options.query_status) {
        Client client = connect(options);
        const auto status = client.status();
        if (status.status != Status::Ok) {
            std::cerr << "qrn-serve-load: status failed: " << status.payload
                      << '\n';
            return 2;
        }
        std::cout << "status: sealed_records=" << status.state.records_sealed
                  << " pending_records=" << status.state.records_pending
                  << " sealed_shards=" << status.state.shards_sealed
                  << " sealed_exposure_hours="
                  << status.state.exposure_sealed_hours
                  << " draining=" << (status.state.draining ? 1 : 0) << '\n';
    }
    if (options.query_verify) {
        Client client = connect(options);
        const auto verdict = client.verify();
        if (verdict.status != Status::Ok) {
            std::cerr << "qrn-serve-load: verify failed: " << verdict.payload
                      << '\n';
            return 2;
        }
        std::cout << verdict.payload;
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    using qrn::tools::parse_f64;
    using qrn::tools::parse_u64;
    Options options;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throw qrn::tools::ParseError(arg, "", "a value");
                }
                return argv[++i];
            };
            if (arg == "--socket") {
                options.socket_path = value();
            } else if (arg == "--port") {
                options.port = static_cast<std::uint16_t>(
                    parse_u64(arg, value(), 1, 65535));
                options.use_tcp = true;
            } else if (arg == "--batches") {
                options.batches = parse_u64(arg, value(), 0, 1'000'000'000);
            } else if (arg == "--batch-size") {
                options.batch_size = parse_u64(arg, value(), 1, 500'000);
            } else if (arg == "--connections") {
                options.connections =
                    static_cast<unsigned>(parse_u64(arg, value(), 1, 1024));
            } else if (arg == "--exposure") {
                options.exposure_per_batch = parse_f64(arg, value());
            } else if (arg == "--start-record") {
                options.start_record = parse_u64(arg, value());
            } else if (arg == "--status") {
                options.query_status = true;
            } else if (arg == "--verify") {
                options.query_verify = true;
            } else {
                return usage();
            }
        }
        if (options.socket_path.empty() && !options.use_tcp) return usage();
        if (!options.socket_path.empty() && options.use_tcp) return usage();
        return run(options);
    } catch (const qrn::tools::ParseError& error) {
        std::cerr << "qrn-serve-load: " << error.what() << '\n';
        return 1;
    } catch (const qrn::serve::SocketError& error) {
        std::cerr << "qrn-serve-load: " << error.what() << '\n';
        return 3;
    } catch (const std::exception& error) {
        std::cerr << "qrn-serve-load: " << error.what() << '\n';
        return 2;
    }
}
