#include "qrn/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace qrn::json {

bool Value::is_null() const noexcept { return std::holds_alternative<std::nullptr_t>(data_); }
bool Value::is_bool() const noexcept { return std::holds_alternative<bool>(data_); }
bool Value::is_number() const noexcept { return std::holds_alternative<double>(data_); }
bool Value::is_string() const noexcept { return std::holds_alternative<std::string>(data_); }
bool Value::is_array() const noexcept { return std::holds_alternative<Array>(data_); }
bool Value::is_object() const noexcept { return std::holds_alternative<Object>(data_); }

namespace {

[[noreturn]] void kind_error(const char* wanted) {
    throw std::runtime_error(std::string("json: value is not ") + wanted);
}

}  // namespace

bool Value::as_bool() const {
    if (!is_bool()) kind_error("a bool");
    return std::get<bool>(data_);
}

double Value::as_number() const {
    if (!is_number()) kind_error("a number");
    return std::get<double>(data_);
}

std::int64_t Value::as_integer() const {
    constexpr double kExactLimit = 9007199254740992.0;  // 2^53
    const double x = as_number();
    if (!(std::fabs(x) <= kExactLimit) || std::trunc(x) != x) {
        char text[32] = {};
        std::snprintf(text, sizeof text, "%.17g", x);
        throw std::runtime_error(std::string("json: number ") + text +
                                 " is not an integer within +-2^53");
    }
    return static_cast<std::int64_t>(x);
}

const std::string& Value::as_string() const {
    if (!is_string()) kind_error("a string");
    return std::get<std::string>(data_);
}

const Array& Value::as_array() const {
    if (!is_array()) kind_error("an array");
    return std::get<Array>(data_);
}

const Object& Value::as_object() const {
    if (!is_object()) kind_error("an object");
    return std::get<Object>(data_);
}

const Value& Value::at(const std::string& key) const {
    for (const auto& [k, v] : as_object()) {
        if (k == key) return v;
    }
    throw std::runtime_error("json: missing key '" + key + "'");
}

bool Value::contains(const std::string& key) const noexcept {
    if (!is_object()) return false;
    for (const auto& [k, v] : std::get<Object>(data_)) {
        if (k == key) return true;
    }
    return false;
}

namespace {

void escape_into(std::string& out, const std::string& s) {
    out += '"';
    for (const char ch : s) {
        switch (ch) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(ch) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", ch);
                    out += buf;
                } else {
                    out += ch;
                }
        }
    }
    out += '"';
}

void number_into(std::string& out, double d) {
    if (!std::isfinite(d)) {
        throw std::runtime_error("json: non-finite numbers are not representable");
    }
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", d);
        out += buf;
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
}

void newline_indent(std::string& out, int indent, int depth) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
    if (is_null()) {
        out += "null";
    } else if (is_bool()) {
        out += as_bool() ? "true" : "false";
    } else if (is_number()) {
        number_into(out, as_number());
    } else if (is_string()) {
        escape_into(out, as_string());
    } else if (is_array()) {
        const auto& arr = as_array();
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0) out += ',';
            newline_indent(out, indent, depth + 1);
            arr[i].dump_to(out, indent, depth + 1);
        }
        newline_indent(out, indent, depth);
        out += ']';
    } else {
        const auto& obj = as_object();
        if (obj.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i > 0) out += ',';
            newline_indent(out, indent, depth + 1);
            escape_into(out, obj[i].first);
            out += indent > 0 ? ": " : ":";
            obj[i].second.dump_to(out, indent, depth + 1);
        }
        newline_indent(out, indent, depth);
        out += '}';
    }
}

std::string Value::dump(int indent) const {
    std::string out;
    dump_to(out, indent, 0);
    return out;
}

namespace {

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Value parse_document() {
        skip_whitespace();
        Value v = parse_value();
        skip_whitespace();
        if (pos_ != text_.size()) fail("trailing characters");
        return v;
    }

private:
    [[noreturn]] void fail(const std::string& message) const {
        throw std::runtime_error("json parse error at byte " + std::to_string(pos_) +
                                 ": " + message);
    }

    void skip_whitespace() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek() const {
        if (pos_ >= text_.size()) {
            throw std::runtime_error("json parse error: unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char ch) {
        if (peek() != ch) fail(std::string("expected '") + ch + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    Value parse_value() {
        skip_whitespace();
        const char c = peek();
        switch (c) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return Value(parse_string());
            case 't':
                if (consume_literal("true")) return Value(true);
                fail("bad literal");
            case 'f':
                if (consume_literal("false")) return Value(false);
                fail("bad literal");
            case 'n':
                if (consume_literal("null")) return Value(nullptr);
                fail("bad literal");
            default: return parse_number();
        }
    }

    Value parse_object() {
        expect('{');
        Object out;
        skip_whitespace();
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(out));
        }
        while (true) {
            skip_whitespace();
            std::string key = parse_string();
            skip_whitespace();
            expect(':');
            out.emplace_back(std::move(key), parse_value());
            skip_whitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return Value(std::move(out));
        }
    }

    Value parse_array() {
        expect('[');
        Array out;
        skip_whitespace();
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(out));
        }
        while (true) {
            out.push_back(parse_value());
            skip_whitespace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return Value(std::move(out));
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) fail("bad \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9') {
                            code += static_cast<unsigned>(h - '0');
                        } else if (h >= 'a' && h <= 'f') {
                            code += static_cast<unsigned>(h - 'a' + 10);
                        } else if (h >= 'A' && h <= 'F') {
                            code += static_cast<unsigned>(h - 'A' + 10);
                        } else {
                            fail("bad hex digit in \\u escape");
                        }
                    }
                    // UTF-8 encode (BMP only; surrogate pairs unsupported).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: fail("unknown escape");
            }
        }
    }

    Value parse_number() {
        const std::size_t start = pos_;
        if (peek() == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
            fail("expected a number");
        }
        // std::from_chars, not strtod: strtod honours LC_NUMERIC, so under
        // e.g. LC_NUMERIC=de_DE "1.5" would stop at the '.' and evidence
        // files would silently parse differently per machine. from_chars
        // is locale-independent and needs no NUL-terminated copy.
        const std::string_view token = text_.substr(start, pos_ - start);
        double d = 0.0;
        const auto [end, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
        if (ec == std::errc::result_out_of_range) fail("number out of range");
        if (ec != std::errc() || end != token.data() + token.size()) {
            fail("malformed number");
        }
        return Value(d);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace qrn::json
