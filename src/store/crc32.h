// Incremental CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// Every payload block and the sealed footer of a qrn-store shard carry a
// CRC so that truncation and bit-flips are detected at read time instead of
// silently skewing Eq. 1 evidence (docs/STORE.md). Slice-by-8 over eight
// compile-time tables, portable C++ with no CPU-feature dispatch, and
// self-contained: no dependency on zlib or any other library the container
// may not have.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qrn::store {

/// Streaming CRC-32 accumulator. Feed bytes in any chunking; the digest
/// depends only on the byte sequence.
class Crc32 {
public:
    void update(const void* data, std::size_t size) noexcept;
    void update(std::string_view bytes) noexcept {
        update(bytes.data(), bytes.size());
    }

    /// The finalized checksum of everything fed so far. Does not reset;
    /// further updates continue the stream.
    [[nodiscard]] std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

private:
    std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience over a byte range.
[[nodiscard]] std::uint32_t crc32(std::string_view bytes) noexcept;

}  // namespace qrn::store
