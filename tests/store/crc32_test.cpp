// CRC-32 pinned against the IEEE check value and against a bit-at-a-time
// reference: the table-driven update must give the same digest for every
// length, start alignment and chunking, or every sealed shard's stored
// CRC would stop matching.
#include "store/crc32.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "stats/rng.h"

namespace qrn::store {
namespace {

/// The definition of CRC-32 (IEEE 802.3, reflected, polynomial
/// 0xEDB88320), one bit at a time: slow and obviously right.
std::uint32_t crc32_bitwise(std::string_view bytes) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (const char byte : bytes) {
        c ^= static_cast<unsigned char>(byte);
        for (int bit = 0; bit < 8; ++bit) {
            c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        }
    }
    return c ^ 0xFFFFFFFFu;
}

std::string random_bytes(std::size_t size, std::uint64_t seed) {
    stats::Rng rng(seed);
    std::string bytes(size, '\0');
    for (char& byte : bytes) byte = static_cast<char>(rng() & 0xFFu);
    return bytes;
}

TEST(Crc32, IeeeCheckValue) {
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_EQ(crc32_bitwise("123456789"), 0xCBF43926u);
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
    // Lengths cross the eight-byte stride and its byte-wise tail; start
    // offsets 0-7 cover every alignment of the eight-byte loads.
    const std::string bytes = random_bytes(1100 + 8, 41);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t length = 0; length <= 1100; ++length) {
            const std::string_view slice(bytes.data() + offset, length);
            ASSERT_EQ(crc32(slice), crc32_bitwise(slice))
                << "offset " << offset << ", length " << length;
        }
    }
}

TEST(Crc32, UpdateIsIndependentOfChunking) {
    const std::string bytes = random_bytes(301, 43);
    const std::uint32_t whole = crc32(bytes);
    for (std::size_t split = 0; split <= bytes.size(); ++split) {
        Crc32 crc;
        crc.update(std::string_view(bytes).substr(0, split));
        crc.update(std::string_view(bytes).substr(split));
        ASSERT_EQ(crc.value(), whole) << "split at " << split;
    }
    // Byte-at-a-time feeding exercises the tail path alone.
    Crc32 crc;
    for (const char byte : bytes) crc.update(&byte, 1);
    EXPECT_EQ(crc.value(), whole);
}

}  // namespace
}  // namespace qrn::store
