// Busy-retry behaviour of the blocking Client against a scripted server.
//
// The real daemon only replies Busy under genuine queue pressure, which a
// test cannot time reliably; here a minimal scripted peer replies with
// exactly the Busy frames the test wants - including the pathological
// retry_after_ms = 0 hint that used to make classify_with_retry busy-spin
// the connection at socket speed.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "serve/stream.h"

namespace {

using namespace qrn::serve;

std::vector<qrn::Incident> one_incident() { return {stream_incident(0)}; }

/// Accepts one connection and, for each request frame, sends the next
/// scripted reply; after the script runs out, every further request gets
/// the final reply again. Counts the requests it served.
class ScriptedServer {
public:
    ScriptedServer(std::string socket_path, std::vector<std::string> replies)
        : listener_(Socket::listen_unix(socket_path)),
          replies_(std::move(replies)) {
        thread_ = std::thread([this] { serve(); });
    }

    ~ScriptedServer() {
        stop_ = true;
        if (thread_.joinable()) thread_.join();
    }

    [[nodiscard]] std::uint64_t requests_served() const {
        return requests_served_.load();
    }

private:
    void serve() {
        std::optional<Socket> conn;
        while (!stop_ && !conn) conn = listener_.accept(/*timeout_ms=*/20);
        if (!conn) return;
        std::size_t next = 0;
        while (!stop_) {
            unsigned char head[4];
            if (!conn->read_exact(head, sizeof(head))) return;  // client gone
            const std::uint32_t length = static_cast<std::uint32_t>(head[0]) |
                                         (static_cast<std::uint32_t>(head[1]) << 8) |
                                         (static_cast<std::uint32_t>(head[2]) << 16) |
                                         (static_cast<std::uint32_t>(head[3]) << 24);
            std::string body(length, '\0');
            if (length > 0 && !conn->read_exact(body.data(), body.size())) return;
            ++requests_served_;
            conn->write_all(replies_[next]);
            if (next + 1 < replies_.size()) ++next;
        }
    }

    Socket listener_;
    std::vector<std::string> replies_;
    std::thread thread_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> requests_served_{0};
};

std::string busy_reply(std::uint32_t retry_after_ms) {
    return encode_frame(static_cast<std::uint8_t>(Status::Busy),
                        encode_busy_payload(retry_after_ms));
}

std::string ok_classify_reply(std::size_t rows) {
    std::vector<ClassifyRow> decoded(rows);
    return encode_frame(static_cast<std::uint8_t>(Status::Ok),
                        encode_classify_reply(decoded));
}

std::string socket_path_for(const char* name) {
    const std::string path =
        ::testing::TempDir() + std::string("qrn_retry_") + name + ".sock";
    std::filesystem::remove(path);
    return path;
}

TEST(ClientBusyRetry, ZeroHintStillBacksOffAndSucceeds) {
    const std::string path = socket_path_for("zero_hint");
    // Three zero-delay Busy hints, then acceptance.
    ScriptedServer server(
        path, {busy_reply(0), busy_reply(0), busy_reply(0), ok_classify_reply(1)});
    Client client = Client::connect_unix(path);
    const auto started = std::chrono::steady_clock::now();
    const auto reply = client.classify_with_retry(1.0, one_incident());
    const auto elapsed = std::chrono::steady_clock::now() - started;
    EXPECT_EQ(reply.status, Status::Ok);
    ASSERT_EQ(reply.rows.size(), 1u);
    EXPECT_EQ(server.requests_served(), 4u);
    // The 1 ms floor turns each "retry now" hint into a real yield: three
    // Busy replies mean at least 3 ms of backoff, never a hot spin.
    EXPECT_GE(elapsed, std::chrono::milliseconds(3));
}

TEST(ClientBusyRetry, ExhaustedAttemptsReturnTheFinalBusyReply) {
    const std::string path = socket_path_for("always_busy");
    ScriptedServer server(path, {busy_reply(0)});
    Client client = Client::connect_unix(path);
    const auto reply =
        client.classify_with_retry(1.0, one_incident(), /*max_attempts=*/3);
    EXPECT_EQ(reply.status, Status::Busy);
    EXPECT_EQ(reply.retry_after_ms, 0u);
    EXPECT_EQ(server.requests_served(), 3u);
}

TEST(ClientBusyRetry, FinalAttemptDoesNotSleepOnTheServersHint) {
    const std::string path = socket_path_for("final_no_sleep");
    // A huge hint on the only allowed attempt: honouring it after the
    // budget is spent would stall the caller for nothing.
    ScriptedServer server(path, {busy_reply(10'000)});
    Client client = Client::connect_unix(path);
    const auto started = std::chrono::steady_clock::now();
    const auto reply =
        client.classify_with_retry(1.0, one_incident(), /*max_attempts=*/1);
    const auto elapsed = std::chrono::steady_clock::now() - started;
    EXPECT_EQ(reply.status, Status::Busy);
    EXPECT_EQ(reply.retry_after_ms, 10'000u);
    EXPECT_LT(elapsed, std::chrono::milliseconds(5'000));
}

}  // namespace
