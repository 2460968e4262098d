// Blocking client for the qrn-serve protocol: one connection, one
// request/reply in flight. Used by the loopback load generator, the CI
// smoke test and the serve test-suite; it is also the reference encoder
// for third-party clients.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qrn/incident.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace qrn::serve {

/// One response, decoded as far as its status allows.
struct Reply {
    Status status = Status::Error;
    std::string payload;            ///< Raw payload (JSON for verify).
    std::uint32_t retry_after_ms = 0;  ///< Busy only.
};

class Client {
public:
    [[nodiscard]] static Client connect_unix(const std::string& path);
    [[nodiscard]] static Client connect_tcp(std::uint16_t port);

    /// Sends a classify batch. On Ok, `rows` holds one entry per record.
    struct ClassifyReply : Reply {
        std::vector<ClassifyRow> rows;
    };
    [[nodiscard]] ClassifyReply classify(double exposure_hours,
                                         const std::vector<Incident>& incidents);

    /// Like classify(), but retries Busy replies (sleeping the server's
    /// hint each time, floored at 1 ms so a zero hint cannot busy-spin
    /// the connection) until accepted or `max_attempts` is exhausted.
    /// Returns the final Busy reply without sleeping when the budget runs
    /// out - the caller decides what rejection means.
    [[nodiscard]] ClassifyReply classify_with_retry(
        double exposure_hours, const std::vector<Incident>& incidents,
        unsigned max_attempts = 100);

    [[nodiscard]] Reply verify(double confidence = 0.95);

    struct StatusResult : Reply {
        StatusReply state;
    };
    [[nodiscard]] StatusResult status();

    void close() noexcept { socket_.close(); }

private:
    explicit Client(Socket socket) : socket_(std::move(socket)) {}

    [[nodiscard]] Reply roundtrip(Opcode opcode, std::string_view payload);

    Socket socket_;
};

}  // namespace qrn::serve
