// The qrn-serve wire protocol: length-prefixed binary frames over a
// Unix-domain or loopback TCP socket (docs/SERVE.md has the full
// specification).
//
// Every message is one frame:
//
//   u32 length   payload size + 1, little-endian (the length counts the
//                opcode/status byte, never itself)
//   u8  code     request opcode or response status
//   ...          payload, layout per opcode/status
//
// Requests:
//   Classify  f64 exposure-hours delta, u32 record count, then count
//             28-byte incident records - the exact record encoding of the
//             shard format (store/format.h), so accepted records land in
//             a shard bit-identically to how they travelled the wire.
//   Verify    f64 confidence.
//   Status    (empty)
//   Opcode 3 is retired (it was Allocate) and is never reused: it gets
//   the unknown-opcode Error reply.
//
// Responses:
//   Ok        Classify: u32 count, then count * (u16 leaf index, u16
//             incident-type index; 0xFFFF = no catalog type matched).
//             Verify: the UTF-8 JSON text the batch CLI prints for the
//             same inputs, byte for byte.
//             Status: u64 records sealed, u64 records pending, u64 shards
//             sealed, f64 sealed exposure hours, u8 draining flag.
//   Busy      u32 suggested retry delay in milliseconds (backpressure:
//             the request queue was full; nothing was enqueued).
//   Error     UTF-8 message.
//
// All integers and doubles are little-endian via the store codecs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "qrn/incident.h"

namespace qrn::serve {

enum class Opcode : std::uint8_t {
    Classify = 1,
    Verify = 2,
    Status = 4,
};

enum class Status : std::uint8_t {
    Ok = 0,
    Busy = 1,
    Error = 2,
};

/// Frames larger than this are a protocol violation: the connection is
/// closed without reading the payload. 16 MiB bounds a classify batch at
/// ~599k records, far beyond any sane batch.
inline constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

/// Incident-type index meaning "no catalog type matched" in a classify
/// reply row.
inline constexpr std::uint16_t kNoType = 0xFFFF;

/// A peer violated the protocol (bad frame, bad opcode, malformed
/// payload). The connection that produced it is closed.
class ProtocolError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

/// One decoded classify request.
struct ClassifyRequest {
    double exposure_hours = 0.0;  ///< Exposure the batch adds, in hours.
    std::vector<Incident> incidents;
};

/// One classify reply row, in request record order.
struct ClassifyRow {
    std::uint16_t leaf = 0;       ///< Classification-tree leaf index.
    std::uint16_t type = kNoType; ///< Incident-type catalog index.

    friend bool operator==(const ClassifyRow&, const ClassifyRow&) = default;
};

/// The status snapshot the daemon reports; `records_sealed` is the resume
/// point for a client replaying a stream after a crash.
struct StatusReply {
    std::uint64_t records_sealed = 0;   ///< Records in sealed shards.
    std::uint64_t records_pending = 0;  ///< Accepted, not yet sealed.
    std::uint64_t shards_sealed = 0;
    double exposure_sealed_hours = 0.0;
    bool draining = false;

    friend bool operator==(const StatusReply&, const StatusReply&) = default;
};

// ---- frame assembly ----------------------------------------------------

/// Wraps a payload into a full frame: length prefix + code + payload.
[[nodiscard]] std::string encode_frame(std::uint8_t code, std::string_view payload);

// ---- request payloads --------------------------------------------------

[[nodiscard]] std::string encode_classify_payload(double exposure_hours,
                                                  const std::vector<Incident>& incidents);
/// Throws ProtocolError on malformed bytes (count/size mismatch,
/// non-finite or negative exposure, invalid record fields).
[[nodiscard]] ClassifyRequest decode_classify_payload(std::string_view payload);

[[nodiscard]] std::string encode_verify_payload(double confidence);
[[nodiscard]] double decode_verify_payload(std::string_view payload);

// ---- response payloads -------------------------------------------------

[[nodiscard]] std::string encode_classify_reply(const std::vector<ClassifyRow>& rows);
[[nodiscard]] std::vector<ClassifyRow> decode_classify_reply(std::string_view payload);

[[nodiscard]] std::string encode_busy_payload(std::uint32_t retry_after_ms);
[[nodiscard]] std::uint32_t decode_busy_payload(std::string_view payload);

[[nodiscard]] std::string encode_status_reply(const StatusReply& status);
[[nodiscard]] StatusReply decode_status_reply(std::string_view payload);

}  // namespace qrn::serve
