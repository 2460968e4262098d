// In-process end-to-end tests of the serve daemon: a real Server on a
// Unix-domain (and loopback TCP) socket, driven through the blocking
// Client. The two acceptance anchors live here: classify rows match the
// direct classifier, and verify replies are byte-identical to what the
// batch CLI prints for the same inputs.
#include <array>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <pthread.h>

#include "qrn/classification.h"
#include "qrn/serialize.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/stream.h"
#include "store/aggregate.h"
#include "store/store.h"

namespace {

using namespace qrn;
using namespace qrn::serve;

#ifndef QRN_CLI_PATH
#error "QRN_CLI_PATH must be defined by the build"
#endif

struct CommandResult {
    int exit_code = -1;
    std::string output;  // stdout only
};

CommandResult run_cli(const std::string& arguments) {
    const std::string command =
        std::string(QRN_CLI_PATH) + " " + arguments + " 2>/dev/null";
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("popen failed");
    CommandResult result;
    std::array<char, 4096> buffer{};
    std::size_t n = 0;
    // qrn-lint: allow(raw-file-io) draining a popen pipe of the spawned CLI, not a shard
    while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
        result.output.append(buffer.data(), n);
    }
    const int status = pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream f(path);
    ASSERT_TRUE(f.is_open());
    f << content;
}

/// Reads one reply frame from a raw socket: the status byte, then the
/// payload.
std::string read_reply_frame(Socket& socket) {
    unsigned char head[4];
    if (!socket.read_exact(head, sizeof(head))) return {};
    const std::uint32_t length = static_cast<std::uint32_t>(head[0]) |
                                 (static_cast<std::uint32_t>(head[1]) << 8) |
                                 (static_cast<std::uint32_t>(head[2]) << 16) |
                                 (static_cast<std::uint32_t>(head[3]) << 24);
    std::string reply(length, '\0');
    if (!socket.read_exact(reply.data(), reply.size())) return {};
    return reply;
}

/// This process's virtual size in KiB, from /proc/self/status.
std::uint64_t vm_size_kib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmSize:", 0) != 0) continue;
        std::istringstream value(line.substr(7));
        std::uint64_t kib = 0;
        value >> kib;
        return kib;
    }
    return 0;
}

/// Threads of this process that have not exited. An exited thread leaves
/// /proc/self/task at once, whether or not it has been joined.
std::size_t live_threads() {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<std::size_t>(
        std::distance(std::filesystem::begin(tasks), std::filesystem::end(tasks)));
}

/// The stack size every std::thread gets, in KiB.
std::uint64_t default_thread_stack_kib() {
    pthread_attr_t attr;
    if (pthread_getattr_default_np(&attr) != 0) return 0;
    std::size_t bytes = 0;
    pthread_attr_getstacksize(&attr, &bytes);
    pthread_attr_destroy(&attr);
    return bytes / 1024;
}

std::vector<Incident> sample_batch(std::size_t count, std::uint64_t start = 0) {
    std::vector<Incident> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(stream_incident(start + i));
    }
    return out;
}

/// One live daemon on a fresh store in a per-test temp directory.
class ServeE2E : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = ::testing::TempDir() + "qrn_serve_" + info->name();
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
        socket_path_ = dir_ + "/qrn.sock";
    }

    void TearDown() override {
        server_.reset();
        std::filesystem::remove_all(dir_);
    }

    /// Starts (or restarts, against the same store) the daemon.
    void start(std::uint64_t shard_roll) {
        server_.reset();
        ServiceConfig service_config;
        service_config.store_dir = dir_ + "/store";
        service_config.shard_roll = shard_roll;
        auto service = std::make_unique<Service>(RiskNorm::paper_example(),
                                                 IncidentTypeSet::paper_vru_example(),
                                                 service_config);
        ServerConfig server_config;
        server_config.socket_path = socket_path_;
        server_config.poll_ms = 10;
        server_ = std::make_unique<Server>(std::move(service), server_config);
        server_->start();
    }

    [[nodiscard]] Client client() { return Client::connect_unix(socket_path_); }

    std::string dir_;
    std::string socket_path_;
    std::unique_ptr<Server> server_;
};

TEST_F(ServeE2E, ClassifyRowsMatchTheDirectClassifier) {
    start(/*shard_roll=*/4096);
    auto c = client();
    const auto batch = sample_batch(100);
    const auto reply = c.classify_with_retry(10.0, batch);
    ASSERT_EQ(reply.status, Status::Ok);
    ASSERT_EQ(reply.rows.size(), batch.size());

    const auto tree = ClassificationTree::paper_example();
    const auto leaves = tree.leaves();
    const auto types = IncidentTypeSet::paper_vru_example();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(leaves.at(reply.rows[i].leaf).joined(),
                  tree.classify(batch[i]).joined())
            << i;
        const auto type = types.classify(batch[i]);
        if (type) {
            EXPECT_EQ(reply.rows[i].type, *type) << i;
        } else {
            EXPECT_EQ(reply.rows[i].type, kNoType) << i;
        }
    }
}

TEST_F(ServeE2E, StatusTracksSealedAndPendingAcrossTheRoll) {
    start(/*shard_roll=*/64);
    auto c = client();
    ASSERT_EQ(c.classify_with_retry(5.0, sample_batch(100)).status, Status::Ok);
    const auto status = c.status();
    ASSERT_EQ(status.status, Status::Ok);
    // 100 records over a 64-record roll: one sealed shard, 36 pending.
    EXPECT_EQ(status.state.records_sealed, 64u);
    EXPECT_EQ(status.state.records_pending, 36u);
    EXPECT_EQ(status.state.shards_sealed, 1u);
    // The batch exposure spreads uniformly: 64/100 of 5 h is sealed (the
    // sealed figure is a 64-term accumulation, so compare to tolerance).
    EXPECT_NEAR(status.state.exposure_sealed_hours, 5.0 * 64 / 100, 1e-9);
    EXPECT_FALSE(status.state.draining);
}

TEST_F(ServeE2E, VerifyMatchesTheBatchCliByteForByte) {
    start(/*shard_roll=*/128);
    auto c = client();
    // Two exact rolls so everything is sealed and verifiable.
    ASSERT_EQ(c.classify_with_retry(40.0, sample_batch(128, 0)).status, Status::Ok);
    ASSERT_EQ(c.classify_with_retry(40.0, sample_batch(128, 128)).status,
              Status::Ok);
    const auto verify_reply = c.verify();
    ASSERT_EQ(verify_reply.status, Status::Ok);

    // Rebuild the same evidence the daemon folded, through the same
    // aggregator, and push it through the batch CLI.
    const auto types = IncidentTypeSet::paper_vru_example();
    const store::Store st(dir_ + "/store");
    std::vector<store::ShardRef> refs;
    for (const auto& entry : st.entries()) {
        refs.push_back({entry.fleet_index, st.shard_path(entry)});
    }
    const auto aggregate = store::aggregate_evidence(refs, types, /*jobs=*/1);

    write_file(dir_ + "/norm.json", run_cli("norm-example").output);
    write_file(dir_ + "/types.json", run_cli("types-example").output);
    write_file(dir_ + "/evidence.json",
               evidence_to_json(aggregate.evidence).dump(2) + "\n");

    const auto cli_verify =
        run_cli("verify --norm " + dir_ + "/norm.json --types " + dir_ +
                "/types.json --evidence " + dir_ + "/evidence.json");
    // 0 (fulfilled) and 2 (not fulfilled) both print the report.
    ASSERT_TRUE(cli_verify.exit_code == 0 || cli_verify.exit_code == 2)
        << cli_verify.exit_code;
    EXPECT_EQ(verify_reply.payload, cli_verify.output);
}

TEST_F(ServeE2E, VerifyBeforeAnySealIsAnErrorReplyNotACrash) {
    start(/*shard_roll=*/4096);
    auto c = client();
    const auto reply = c.verify();
    EXPECT_EQ(reply.status, Status::Error);
    EXPECT_NE(reply.payload.find("no sealed evidence"), std::string::npos);
    // The connection and the daemon both survive the domain error.
    EXPECT_EQ(c.status().status, Status::Ok);
}

TEST_F(ServeE2E, MalformedPayloadGetsErrorReplyAndConnectionSurvives) {
    start(/*shard_roll=*/4096);
    auto socket = Socket::connect_unix(socket_path_);
    // A classify frame whose payload is shorter than its fixed header.
    socket.write_all(encode_frame(static_cast<std::uint8_t>(Opcode::Classify),
                                  "junk"));
    const std::string reply = read_reply_frame(socket);
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(static_cast<std::uint8_t>(reply[0]),
              static_cast<std::uint8_t>(Status::Error));

    // Same connection, unknown opcodes: another Error reply each, still
    // alive. Opcode 3 is the retired Allocate and must stay unknown.
    for (const std::uint8_t opcode : {std::uint8_t{3}, std::uint8_t{99}}) {
        socket.write_all(encode_frame(opcode, ""));
        const std::string reply2 = read_reply_frame(socket);
        ASSERT_FALSE(reply2.empty()) << int{opcode};
        EXPECT_EQ(static_cast<std::uint8_t>(reply2[0]),
                  static_cast<std::uint8_t>(Status::Error))
            << int{opcode};
    }
    socket.close();

    // A fresh client still gets service.
    auto c = client();
    EXPECT_EQ(c.status().status, Status::Ok);
}

TEST_F(ServeE2E, SequentialConnectionsDoNotGrowTheAddressSpace) {
    // Each connection gets a reader thread, and a thread that has exited
    // keeps its stack mapped until it is joined. Readers must be joined as
    // their connections end, not only at drain, or a long-running daemon
    // grows by one stack per connection it has ever served.
    start(/*shard_roll=*/4096);
    const auto one_connection = [this] {
        const std::size_t threads = live_threads();
        auto c = client();
        ASSERT_EQ(c.status().status, Status::Ok);
        c.close();
        // Let the reader exit before the next connection: overlapping
        // readers make malloc open another arena, a growth this test is
        // not about.
        for (int i = 0; i < 5000 && live_threads() > threads; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    };
    for (int i = 0; i < 4; ++i) one_connection();
    const std::uint64_t stack_kib = default_thread_stack_kib();
    ASSERT_GT(stack_kib, 0u);
    const std::uint64_t before = vm_size_kib();
    ASSERT_GT(before, 0u);

    constexpr std::uint64_t kConnections = 32;
    for (std::uint64_t i = 0; i < kConnections; ++i) one_connection();
    const std::uint64_t after = vm_size_kib();
    // The last reader is joined only when the next connection arrives, so
    // a few stacks of slack; never one per connection.
    EXPECT_LT(after, before + kConnections / 4 * stack_kib)
        << "VmSize " << before << " KiB -> " << after << " KiB over "
        << kConnections << " connections (" << stack_kib << " KiB stacks)";
}

TEST_F(ServeE2E, HeaderPastTheFrameCapClosesTheConnectionUnread) {
    start(/*shard_roll=*/4096);
    auto socket = Socket::connect_unix(socket_path_);
    // A header announcing kMaxFrameBytes + 1 and no payload behind it. The
    // reader must hang up at once: one that waited for the payload would
    // leave this socket silent past the poll timeout.
    const std::uint32_t length = kMaxFrameBytes + 1;
    std::string head(4, '\0');
    for (int i = 0; i < 4; ++i) head[i] = static_cast<char>((length >> (8 * i)) & 0xFFu);
    socket.write_all(head);
    ASSERT_TRUE(socket.wait_readable(5000));
    unsigned char byte = 0;
    EXPECT_FALSE(socket.read_exact(&byte, 1));  // EOF, no reply frame

    // The daemon still serves another client.
    auto c = client();
    EXPECT_EQ(c.status().status, Status::Ok);
}

TEST_F(ServeE2E, MalformedClassifyFrameAtTheCapGetsAnErrorReply) {
    start(/*shard_roll=*/4096);
    auto socket = Socket::connect_unix(socket_path_);
    // A frame of exactly kMaxFrameBytes is legal framing; its all-zero
    // payload announces 0 records but carries ~16 MiB, so decoding fails
    // with a typed Error reply instead of a closed connection.
    socket.write_all(encode_frame(static_cast<std::uint8_t>(Opcode::Classify),
                                  std::string(kMaxFrameBytes - 1, '\0')));
    const std::string reply = read_reply_frame(socket);
    ASSERT_FALSE(reply.empty());
    EXPECT_EQ(static_cast<std::uint8_t>(reply[0]),
              static_cast<std::uint8_t>(Status::Error));

    // The same connection stays open for the next request.
    socket.write_all(encode_frame(static_cast<std::uint8_t>(Opcode::Status), ""));
    const std::string status = read_reply_frame(socket);
    ASSERT_FALSE(status.empty());
    EXPECT_EQ(static_cast<std::uint8_t>(status[0]), static_cast<std::uint8_t>(Status::Ok));
}

TEST_F(ServeE2E, DrainSealsThePartialShardAndRestartResumesThere) {
    start(/*shard_roll=*/64);
    {
        auto c = client();
        ASSERT_EQ(c.classify_with_retry(10.0, sample_batch(100)).status,
                  Status::Ok);
        c.close();
    }
    server_->drain();
    // Drain sealed the 36 pending records as a second (partial) shard.
    const auto drained = server_->service().status();
    EXPECT_EQ(drained.records_sealed, 100u);
    EXPECT_EQ(drained.records_pending, 0u);
    EXPECT_EQ(drained.shards_sealed, 2u);

    // A restarted daemon on the same store resumes at the sealed prefix.
    start(/*shard_roll=*/64);
    auto c = client();
    const auto status = c.status();
    ASSERT_EQ(status.status, Status::Ok);
    EXPECT_EQ(status.state.records_sealed, 100u);
    EXPECT_EQ(status.state.shards_sealed, 2u);
    EXPECT_DOUBLE_EQ(status.state.exposure_sealed_hours, 10.0);
    // And verification over the sealed prefix works immediately.
    EXPECT_EQ(c.verify().status, Status::Ok);
}

TEST_F(ServeE2E, RestartRejectsAShardSealedUnderAnotherSequence) {
    // The startup re-scan walks the listing in sequence order, but only a
    // shard's header says which sequence its bytes were sealed as. A copy
    // of shard 1 over shard 2 passes every checksum and must still fail
    // startup instead of being folded twice.
    ServiceConfig config;
    config.store_dir = dir_ + "/store";
    config.shard_roll = 16;
    {
        Service service(RiskNorm::paper_example(), IncidentTypeSet::paper_vru_example(),
                        config);
        ClassifyRequest request;
        request.exposure_hours = 6.0;
        request.incidents = sample_batch(48);
        (void)service.classify_batch(request);
        ASSERT_EQ(service.status().shards_sealed, 3u);
    }
    const store::Store st(config.store_dir);
    const auto entries = st.entries();
    ASSERT_EQ(entries.size(), 3u);
    std::filesystem::copy_file(st.shard_path(entries[1]), st.shard_path(entries[2]),
                               std::filesystem::copy_options::overwrite_existing);
    try {
        const Service restarted(RiskNorm::paper_example(),
                                IncidentTypeSet::paper_vru_example(), config);
        FAIL() << "expected StoreError for a shard under the wrong sequence";
    } catch (const store::StoreError& error) {
        EXPECT_EQ(error.kind(), store::StoreErrorKind::Inconsistent);
    }
}

TEST_F(ServeE2E, TcpLoopbackServesTheSameProtocol) {
    ServiceConfig service_config;
    service_config.store_dir = dir_ + "/store";
    service_config.shard_roll = 32;
    auto service = std::make_unique<Service>(RiskNorm::paper_example(),
                                             IncidentTypeSet::paper_vru_example(),
                                             service_config);
    ServerConfig server_config;  // empty socket_path: loopback TCP, port 0
    server_config.poll_ms = 10;
    Server server(std::move(service), server_config);
    server.start();
    ASSERT_GT(server.port(), 0);

    auto c = Client::connect_tcp(server.port());
    const auto reply = c.classify_with_retry(1.0, sample_batch(32));
    ASSERT_EQ(reply.status, Status::Ok);
    EXPECT_EQ(reply.rows.size(), 32u);
    const auto status = c.status();
    ASSERT_EQ(status.status, Status::Ok);
    EXPECT_EQ(status.state.records_sealed, 32u);
    c.close();
    server.drain();
}

}  // namespace
