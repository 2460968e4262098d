#include "serve/server.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <utility>

#include <unistd.h>

#include "obs/metrics.h"
#include "store/format.h"

namespace qrn::serve {

/// Reply rendezvous between the dispatcher and the reader that owns the
/// connection. Shared ownership: the reader may abandon the wait only by
/// process death, but the block must outlive whichever side finishes
/// last.
struct Server::Pending {
    struct Reply {
        bool done = false;
        Status status = Status::Error;
        std::string payload;
    };
    exec::Guarded<Reply> reply;
    std::condition_variable cv;
};

/// One decoded request travelling reader -> dispatcher.
struct Server::Job {
    Opcode opcode{};
    ClassifyRequest classify;   ///< Classify only.
    double confidence = 0.95;   ///< Verify only.
    std::shared_ptr<Pending> pending;
};

Server::Server(std::unique_ptr<Service> service, ServerConfig config)
    : service_(std::move(service)),
      config_(std::move(config)),
      queue_(std::make_unique<BoundedQueue<Job>>(config_.queue_capacity)) {
    if (obs::enabled()) {
        obs::add_counter("serve.connections", 0);
        obs::add_counter("serve.rejected_busy", 0);
        obs::add_counter("serve.protocol_errors", 0);
        obs::record_max("serve.queue_depth_max", 0);
    }
}

Server::~Server() {
    try {
        drain();
    } catch (...) {
        // A destructor cannot surface the failure; drain() called
        // explicitly is the path that reports it.
    }
}

void Server::start() {
    if (started_) return;
    listener_ = config_.socket_path.empty()
                    ? Socket::listen_tcp(config_.port)
                    : Socket::listen_unix(config_.socket_path);
    started_ = true;
    dispatch_thread_ = std::thread([this] { dispatch_loop(); });
    accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint16_t Server::port() const { return listener_.bound_port(); }

void Server::drain() {
    if (!started_ || drained_) {
        drained_ = true;
        return;
    }
    draining_.store(true, std::memory_order_relaxed);
    if (accept_thread_.joinable()) accept_thread_.join();
    listener_.close();
    if (!config_.socket_path.empty()) {
        ::unlink(config_.socket_path.c_str());
    }
    // Readers finish their in-flight request (its reply comes from the
    // still-running dispatcher) and exit at the next poll tick. The accept
    // thread is gone, so no reader is added any more; a finishing reader
    // still takes the list's lock, so the joins run outside it.
    std::vector<std::thread> readers = std::exchange(readers_.lock()->running, {});
    for (std::thread& reader : readers) reader.join();
    // Nothing can enqueue any more; flush what is queued, then seal.
    queue_->close();
    if (dispatch_thread_.joinable()) dispatch_thread_.join();
    service_->finish();
    drained_ = true;
}

void Server::accept_loop() {
    while (!draining()) {
        std::optional<Socket> conn;
        try {
            conn = listener_.accept(config_.poll_ms);
        } catch (const SocketError&) {
            return;  // listener died; drain() still flushes the queue
        }
        if (!conn) continue;
        if (obs::enabled()) obs::add_counter("serve.connections", 1);
        join_finished_readers();
        // The new reader files itself as finished under the same lock, so
        // it is always listed as running first.
        readers_.lock()->running.emplace_back(
            [this, sock = std::move(*conn)]() mutable {
                reader_loop(std::move(sock));
                readers_.lock()->finished.push_back(std::this_thread::get_id());
            });
    }
}

void Server::join_finished_readers() {
    std::vector<std::thread> finished;
    {
        const auto readers = readers_.lock();
        auto& running = readers->running;
        for (const std::thread::id id : readers->finished) {
            const auto at = std::find_if(running.begin(), running.end(),
                                         [id](const std::thread& t) { return t.get_id() == id; });
            finished.push_back(std::move(*at));
            running.erase(at);
        }
        readers->finished.clear();
    }
    for (std::thread& reader : finished) reader.join();
}

void Server::reader_loop(Socket socket) {
    std::string payload;
    for (;;) {
        // Poll so a drain is noticed between requests, never mid-request.
        for (;;) {
            if (draining()) return;
            bool readable = false;
            try {
                readable = socket.wait_readable(config_.poll_ms);
            } catch (const SocketError&) {
                return;
            }
            if (readable) break;
        }
        try {
            unsigned char head[4];
            if (!socket.read_exact(head, sizeof(head))) return;  // clean EOF
            const std::uint32_t length =
                static_cast<std::uint32_t>(head[0]) |
                (static_cast<std::uint32_t>(head[1]) << 8) |
                (static_cast<std::uint32_t>(head[2]) << 16) |
                (static_cast<std::uint32_t>(head[3]) << 24);
            if (length == 0 || length > kMaxFrameBytes) return;  // violation
            std::uint8_t opcode = 0;
            if (!socket.read_exact(&opcode, 1)) return;
            payload.resize(length - 1);
            if (length > 1 && !socket.read_exact(payload.data(), payload.size())) {
                return;
            }

            Job job;
            try {
                switch (static_cast<Opcode>(opcode)) {
                    case Opcode::Classify:
                        job.classify = decode_classify_payload(payload);
                        break;
                    case Opcode::Verify:
                        job.confidence = decode_verify_payload(payload);
                        break;
                    case Opcode::Status:
                        break;
                    default:
                        throw ProtocolError("unknown opcode " +
                                            std::to_string(opcode));
                }
            } catch (const ProtocolError& error) {
                if (obs::enabled()) obs::add_counter("serve.protocol_errors", 1);
                socket.write_all(encode_frame(
                    static_cast<std::uint8_t>(Status::Error), error.what()));
                continue;
            }
            job.opcode = static_cast<Opcode>(opcode);
            job.pending = std::make_shared<Pending>();
            const auto pending = job.pending;

            if (!queue_->try_push(std::move(job))) {
                // Backpressure: the queue is full. Nothing was enqueued;
                // the client owns the retry.
                if (obs::enabled()) obs::add_counter("serve.rejected_busy", 1);
                socket.write_all(
                    encode_frame(static_cast<std::uint8_t>(Status::Busy),
                                 encode_busy_payload(config_.retry_after_ms)));
                continue;
            }
            if (obs::enabled()) {
                obs::record_max("serve.queue_depth_max", queue_->size());
            }
            auto reply = pending->reply.lock();
            reply.wait(pending->cv, [&reply] { return reply->done; });
            socket.write_all(encode_frame(
                static_cast<std::uint8_t>(reply->status), reply->payload));
        } catch (const SocketError&) {
            return;  // peer vanished; its queued work still completes
        }
    }
}

void Server::dispatch_loop() {
    // qrn:dispatcher(begin) -- the sole store-append serializer: blocking
    // here stalls every queued request, so socket/file I/O, sleeps and
    // joins are banned inside (pop() is the one sanctioned wait).
    while (auto job = queue_->pop()) {
        Status status = Status::Ok;
        std::string payload;
        try {
            switch (job->opcode) {
                case Opcode::Classify:
                    payload = encode_classify_reply(
                        service_->classify_batch(job->classify));
                    break;
                case Opcode::Verify:
                    payload = service_->verify_json(job->confidence);
                    break;
                case Opcode::Status: {
                    StatusReply reply = service_->status();
                    reply.draining = draining();
                    payload = encode_status_reply(reply);
                    break;
                }
            }
        } catch (const std::exception& error) {
            status = Status::Error;
            payload = error.what();
        }
        {
            const auto reply = job->pending->reply.lock();
            reply->status = status;
            reply->payload = std::move(payload);
            reply->done = true;
            job->pending->cv.notify_one();
        }
    }
    // qrn:dispatcher(end)
}

}  // namespace qrn::serve
