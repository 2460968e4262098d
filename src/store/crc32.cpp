#include "store/crc32.h"

#include <array>

namespace qrn::store {

namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slice-by-8 tables for the reflected polynomial 0xEDB88320, built at
/// compile time. kTables[0] is the classic byte table; kTables[k][n] is
/// the CRC state after byte n followed by k zero bytes, so XOR-ing eight
/// lookups advances the state over eight input bytes at once.
constexpr std::array<Table, 8> kTables = [] {
    std::array<Table, 8> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
        std::uint32_t c = n;
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
        t[0][n] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
        for (std::size_t n = 0; n < 256; ++n) {
            t[k][n] = (t[k - 1][n] >> 8) ^ t[0][t[k - 1][n] & 0xFFu];
        }
    }
    return t;
}();

/// Little-endian load by explicit byte assembly (compilers fuse it into
/// one load); the checksum must not depend on host byte order.
[[nodiscard]] std::uint32_t load_le32(const unsigned char* p) noexcept {
    return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::update(const void* data, std::size_t size) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    std::uint32_t c = state_;
    for (; size >= 8; bytes += 8, size -= 8) {
        const std::uint32_t lo = c ^ load_le32(bytes);
        const std::uint32_t hi = load_le32(bytes + 4);
        c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
            kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
            kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
            kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    }
    for (; size > 0; ++bytes, --size) {
        c = kTables[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
    }
    state_ = c;
}

std::uint32_t crc32(std::string_view bytes) noexcept {
    Crc32 crc;
    crc.update(bytes);
    return crc.value();
}

}  // namespace qrn::store
