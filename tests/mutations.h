// Fixed-seed mutants of one valid encoded input, shared by the decoder
// mutation suites. Every decoder of untrusted bytes must either decode a
// mutant or raise its own typed error - never another exception, a crash,
// a hang or an outsized allocation.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stats/rng.h"

namespace qrn::mutation {

/// From `valid` (at least 8 bytes), with offsets and values drawn from
/// stats::Rng(seed):
///   - `draws` single-bit flips, `draws` truncations and `draws` byte sets;
///   - `draws` 4- or 8-byte little-endian fields set to 0, 2^31-1, 2^32-1
///     or 2^64-1;
///   - every decimal number in the text (a run of digits and . e E + -
///     that starts with a digit) swapped for each of a set of boundary
///     spellings: zero, negatives, the 32- and 64-bit limits and one past,
///     non-finite and non-integer values.
inline std::vector<std::string> mutants(const std::string& valid, std::uint64_t seed,
                                        std::size_t draws) {
    std::vector<std::string> out;
    stats::Rng rng(seed);
    const auto offset = [&](std::size_t width) {
        return static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(valid.size() - width)));
    };
    for (std::size_t i = 0; i < draws; ++i) {
        std::string flipped = valid;
        flipped[offset(1)] ^= static_cast<char>(1 << rng.uniform_int(0, 7));
        out.push_back(std::move(flipped));
        out.push_back(valid.substr(0, offset(1)));
        std::string set = valid;
        set[offset(1)] = static_cast<char>(rng.uniform_int(0, 255));
        out.push_back(std::move(set));
    }
    constexpr std::array<std::uint64_t, 4> kFieldValues{0, 0x7FFF'FFFF, 0xFFFF'FFFF,
                                                        ~std::uint64_t{0}};
    for (std::size_t i = 0; i < draws; ++i) {
        const std::size_t width = rng.bernoulli(0.5) ? 4 : 8;
        const std::uint64_t value = kFieldValues[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(kFieldValues.size()) - 1))];
        std::string field = valid;
        const std::size_t at = offset(width);
        for (std::size_t byte = 0; byte < width; ++byte) {
            field[at + byte] = static_cast<char>((value >> (8 * byte)) & 0xFFu);
        }
        out.push_back(std::move(field));
    }
    constexpr std::array<std::string_view, 12> kNumbers{
        "0",           "-1",          "2147483647",          "2147483648",
        "4294967295",  "4294967296",  "9223372036854775807", "18446744073709551615",
        "18446744073709551616", "1e309", "-1e309",            "0.5"};
    const auto is_digit = [](char c) { return c >= '0' && c <= '9'; };
    const auto in_number = [&](char c) {
        return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-';
    };
    for (std::size_t begin = 0; begin < valid.size(); ++begin) {
        if (!is_digit(valid[begin]) || (begin > 0 && in_number(valid[begin - 1]))) continue;
        std::size_t end = begin;
        while (end < valid.size() && in_number(valid[end])) ++end;
        for (const std::string_view number : kNumbers) {
            out.push_back(valid.substr(0, begin) + std::string(number) + valid.substr(end));
        }
    }
    return out;
}

}  // namespace qrn::mutation
