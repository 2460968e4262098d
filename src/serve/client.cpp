#include "serve/client.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

namespace qrn::serve {

Client Client::connect_unix(const std::string& path) {
    return Client(Socket::connect_unix(path));
}

Client Client::connect_tcp(std::uint16_t port) {
    return Client(Socket::connect_tcp(port));
}

Reply Client::roundtrip(Opcode opcode, std::string_view payload) {
    socket_.write_all(
        encode_frame(static_cast<std::uint8_t>(opcode), payload));
    unsigned char head[4];
    if (!socket_.read_exact(head, sizeof(head))) {
        throw SocketError("server closed the connection before replying "
                          "(draining?)");
    }
    const std::uint32_t length = static_cast<std::uint32_t>(head[0]) |
                                 (static_cast<std::uint32_t>(head[1]) << 8) |
                                 (static_cast<std::uint32_t>(head[2]) << 16) |
                                 (static_cast<std::uint32_t>(head[3]) << 24);
    if (length == 0 || length > kMaxFrameBytes) {
        throw ProtocolError("reply frame length out of range: " +
                            std::to_string(length));
    }
    Reply reply;
    std::uint8_t status = 0;
    if (!socket_.read_exact(&status, 1)) {
        throw SocketError("server closed mid-reply");
    }
    if (status > static_cast<std::uint8_t>(Status::Error)) {
        throw ProtocolError("unknown reply status " + std::to_string(status));
    }
    reply.status = static_cast<Status>(status);
    reply.payload.resize(length - 1);
    if (length > 1 &&
        !socket_.read_exact(reply.payload.data(), reply.payload.size())) {
        throw SocketError("server closed mid-reply");
    }
    if (reply.status == Status::Busy) {
        reply.retry_after_ms = decode_busy_payload(reply.payload);
    }
    return reply;
}

Client::ClassifyReply Client::classify(double exposure_hours,
                                       const std::vector<Incident>& incidents) {
    ClassifyReply out;
    static_cast<Reply&>(out) =
        roundtrip(Opcode::Classify,
                  encode_classify_payload(exposure_hours, incidents));
    if (out.status == Status::Ok) {
        out.rows = decode_classify_reply(out.payload);
    }
    return out;
}

Client::ClassifyReply Client::classify_with_retry(
    double exposure_hours, const std::vector<Incident>& incidents,
    unsigned max_attempts) {
    ClassifyReply reply;
    for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
        reply = classify(exposure_hours, incidents);
        if (reply.status != Status::Busy) return reply;
        if (attempt + 1 == max_attempts) break;  // no pointless final sleep
        // A server under pressure may hint retry_after_ms = 0 ("retry
        // now"); taking that literally busy-spins the connection and keeps
        // the server saturated. Always yield at least 1 ms.
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max<std::uint32_t>(reply.retry_after_ms, 1)));
    }
    return reply;  // still Busy after max_attempts; caller decides
}

Reply Client::verify(double confidence) {
    return roundtrip(Opcode::Verify, encode_verify_payload(confidence));
}

Client::StatusResult Client::status() {
    StatusResult out;
    static_cast<Reply&>(out) = roundtrip(Opcode::Status, {});
    if (out.status == Status::Ok) {
        out.state = decode_status_reply(out.payload);
    }
    return out;
}

}  // namespace qrn::serve
