// Wire-protocol codec tests: every payload round-trips, malformed bytes
// are ProtocolErrors (never silent truncation), and the bounded queue's
// backpressure contract holds.
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mutations.h"
#include "serve/protocol.h"
#include "serve/queue.h"
#include "serve/service.h"
#include "serve/stream.h"

namespace {

using namespace qrn;
using namespace qrn::serve;

std::vector<Incident> sample_batch(std::size_t count, std::uint64_t start = 0) {
    std::vector<Incident> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(stream_incident(start + i));
    }
    return out;
}

TEST(Frame, LayoutIsLengthCodePayload) {
    const std::string frame = encode_frame(7, "abc");
    ASSERT_EQ(frame.size(), 8u);
    // Length counts the code byte plus the payload, little-endian.
    EXPECT_EQ(static_cast<unsigned char>(frame[0]), 4u);
    EXPECT_EQ(static_cast<unsigned char>(frame[1]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(frame[2]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(frame[3]), 0u);
    EXPECT_EQ(static_cast<unsigned char>(frame[4]), 7u);
    EXPECT_EQ(frame.substr(5), "abc");
}

TEST(Frame, PayloadIsCappedOneByteBelowTheFrameLimit) {
    // The length prefix counts the code byte, so the largest payload a
    // frame can carry is kMaxFrameBytes - 1 bytes.
    const auto code = static_cast<std::uint8_t>(Opcode::Classify);
    const std::string frame = encode_frame(code, std::string(kMaxFrameBytes - 1, '\0'));
    EXPECT_EQ(frame.size(), 4u + kMaxFrameBytes);
    EXPECT_THROW(encode_frame(code, std::string(kMaxFrameBytes, '\0')), ProtocolError);
}

TEST(ClassifyPayload, RoundTripsExposureAndRecords) {
    const auto batch = sample_batch(17);
    const auto payload = encode_classify_payload(12.5, batch);
    const auto decoded = decode_classify_payload(payload);
    EXPECT_DOUBLE_EQ(decoded.exposure_hours, 12.5);
    ASSERT_EQ(decoded.incidents.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(decoded.incidents[i].first, batch[i].first) << i;
        EXPECT_EQ(decoded.incidents[i].second, batch[i].second) << i;
        EXPECT_EQ(decoded.incidents[i].mechanism, batch[i].mechanism) << i;
        EXPECT_DOUBLE_EQ(decoded.incidents[i].relative_speed_kmh,
                         batch[i].relative_speed_kmh)
            << i;
    }
}

TEST(ClassifyPayload, EmptyBatchCarriesOnlyExposure) {
    const auto decoded =
        decode_classify_payload(encode_classify_payload(3.0, {}));
    EXPECT_DOUBLE_EQ(decoded.exposure_hours, 3.0);
    EXPECT_TRUE(decoded.incidents.empty());
}

TEST(ClassifyPayload, RejectsTruncationAndCountMismatch) {
    const auto payload = encode_classify_payload(1.0, sample_batch(3));
    // Drop the last record's final byte.
    EXPECT_THROW(
        decode_classify_payload(
            std::string_view(payload).substr(0, payload.size() - 1)),
        ProtocolError);
    // A header shorter than exposure + count.
    EXPECT_THROW(decode_classify_payload(std::string_view(payload).substr(0, 11)),
                 ProtocolError);
    // Trailing junk after the declared records.
    EXPECT_THROW(decode_classify_payload(payload + "x"), ProtocolError);
}

TEST(ClassifyPayload, RejectsBadExposureAndBadRecordBytes) {
    const auto batch = sample_batch(1);
    EXPECT_THROW(decode_classify_payload(encode_classify_payload(-1.0, batch)),
                 ProtocolError);
    EXPECT_THROW(
        decode_classify_payload(encode_classify_payload(
            std::numeric_limits<double>::quiet_NaN(), batch)),
        ProtocolError);
    // Corrupt the first record's actor byte to an out-of-range enum value.
    auto payload = encode_classify_payload(1.0, batch);
    payload[12] = static_cast<char>(0xEE);
    EXPECT_THROW(decode_classify_payload(payload), ProtocolError);
}

TEST(ClassifyReply, RoundTripsRowsIncludingNoType) {
    const std::vector<ClassifyRow> rows = {
        {0, 2}, {5, kNoType}, {3, 0}};
    const auto decoded = decode_classify_reply(encode_classify_reply(rows));
    EXPECT_EQ(decoded, rows);
    EXPECT_THROW(decode_classify_reply("abc"), ProtocolError);
}

TEST(VerifyPayload, RoundTripsConfidence) {
    EXPECT_DOUBLE_EQ(decode_verify_payload(encode_verify_payload(0.95)), 0.95);
    EXPECT_THROW(decode_verify_payload("short"), ProtocolError);
}

TEST(BusyPayload, RoundTripsRetryHint) {
    EXPECT_EQ(decode_busy_payload(encode_busy_payload(250)), 250u);
    EXPECT_THROW(decode_busy_payload("ab"), ProtocolError);
}

TEST(StatusReplyCodec, RoundTripsEveryField) {
    StatusReply status;
    status.records_sealed = 4096;
    status.records_pending = 17;
    status.shards_sealed = 2;
    status.exposure_sealed_hours = 123.25;
    status.draining = true;
    EXPECT_EQ(decode_status_reply(encode_status_reply(status)), status);
    EXPECT_THROW(decode_status_reply("tiny"), ProtocolError);
}

// ---- mutated payloads: decoded or a ProtocolError, nothing else --------

/// Decodes every mutant of `valid`; returns how many decoded, and records
/// every exception that is not a ProtocolError.
template <typename Decode>
std::size_t decode_mutants(const std::string& valid, std::uint64_t seed, Decode decode,
                           std::vector<std::string>& failures) {
    std::size_t decoded = 0;
    for (const std::string& mutant : mutation::mutants(valid, seed, 500)) {
        try {
            (void)decode(mutant);
            ++decoded;
        } catch (const ProtocolError&) {
        } catch (const std::exception& error) {
            failures.push_back(error.what());
        }
    }
    return decoded;
}

TEST(PayloadMutation, ClassifyPayloadsDecodeOrAreProtocolErrors) {
    // A real request: the load generator's canonical stream, 64 records.
    const std::string valid = encode_classify_payload(2.5, sample_batch(64));
    std::vector<std::string> failures;
    EXPECT_GT(decode_mutants(valid, 0x636c6173, decode_classify_payload, failures), 0u);
    EXPECT_EQ(failures.size(), 0u)
        << "first: " << (failures.empty() ? std::string() : failures.front());
}

TEST(PayloadMutation, StatusRepliesDecodeOrAreProtocolErrors) {
    // A real reply: the status a daemon reports after one batch rolled a
    // shard.
    ServiceConfig config;
    config.store_dir = ::testing::TempDir() + "qrn_payload_mutation";
    config.shard_roll = 48;
    std::filesystem::remove_all(config.store_dir);
    std::string valid;
    {
        Service service(RiskNorm::paper_example(), IncidentTypeSet::paper_vru_example(),
                        config);
        ClassifyRequest request;
        request.exposure_hours = 2.5;
        request.incidents = sample_batch(64);
        (void)service.classify_batch(request);
        valid = encode_status_reply(service.status());
    }
    std::filesystem::remove_all(config.store_dir);
    std::vector<std::string> failures;
    EXPECT_GT(decode_mutants(valid, 0x73746174, decode_status_reply, failures), 0u);
    EXPECT_EQ(failures.size(), 0u)
        << "first: " << (failures.empty() ? std::string() : failures.front());
}

// ---- BoundedQueue: the backpressure contract ---------------------------

TEST(BoundedQueue, RejectsWhenFullInsteadOfBlocking) {
    BoundedQueue<int> queue(2);
    EXPECT_TRUE(queue.try_push(1));
    EXPECT_TRUE(queue.try_push(2));
    EXPECT_FALSE(queue.try_push(3));  // full: immediate, visible rejection
    EXPECT_EQ(queue.size(), 2u);
    ASSERT_EQ(queue.pop(), 1);
    EXPECT_TRUE(queue.try_push(3));  // a pop frees a slot
}

TEST(BoundedQueue, CloseDrainsQueuedItemsBeforeReportingEmpty) {
    BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.try_push(10));
    ASSERT_TRUE(queue.try_push(11));
    queue.close();
    EXPECT_FALSE(queue.try_push(12));  // closed: no new work
    // Closing never loses items already accepted.
    EXPECT_EQ(queue.pop(), 10);
    EXPECT_EQ(queue.pop(), 11);
    EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(BoundedQueue, ZeroCapacityIsClampedToOne) {
    BoundedQueue<int> queue(0);
    EXPECT_EQ(queue.capacity(), 1u);
    EXPECT_TRUE(queue.try_push(1));
    EXPECT_FALSE(queue.try_push(2));
}

}  // namespace
