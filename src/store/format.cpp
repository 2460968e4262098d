#include "store/format.h"

#include <bit>
#include <exception>

namespace qrn::store {

std::string_view to_string(StoreErrorKind kind) noexcept {
    switch (kind) {
        case StoreErrorKind::Io: return "io";
        case StoreErrorKind::BadMagic: return "bad-magic";
        case StoreErrorKind::BadVersion: return "bad-version";
        case StoreErrorKind::Truncated: return "truncated";
        case StoreErrorKind::Checksum: return "checksum";
        case StoreErrorKind::Inconsistent: return "inconsistent";
    }
    return "unknown";
}

namespace {

/// "[kind] message", built with append: GCC 12 at -O3 reports a false
/// -Wrestrict inside libstdc++ for `"[" + std::string(...)`.
std::string tagged_message(StoreErrorKind kind, const std::string& message) {
    std::string out = "[";
    out.append(to_string(kind)).append("] ").append(message);
    return out;
}

}  // namespace

StoreError::StoreError(StoreErrorKind kind, const std::string& message)
    : std::runtime_error(tagged_message(kind, message)), kind_(kind) {}

void put_u32(std::string& out, std::uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
        out.push_back(static_cast<char>((value >> shift) & 0xFFu));
    }
}

void put_u64(std::string& out, std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
        out.push_back(static_cast<char>((value >> shift) & 0xFFu));
    }
}

void put_f64(std::string& out, double value) {
    put_u64(out, std::bit_cast<std::uint64_t>(value));
}

std::uint32_t get_u32(std::string_view bytes, std::size_t offset) noexcept {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
        value |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes[offset + static_cast<std::size_t>(i)]))
                 << (8 * i);
    }
    return value;
}

std::uint64_t get_u64(std::string_view bytes, std::size_t offset) noexcept {
    std::uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
        value |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes[offset + static_cast<std::size_t>(i)]))
                 << (8 * i);
    }
    return value;
}

double get_f64(std::string_view bytes, std::size_t offset) noexcept {
    return std::bit_cast<double>(get_u64(bytes, offset));
}

void encode_record(std::string& out, const Incident& incident) {
    out.push_back(static_cast<char>(incident.first));
    out.push_back(static_cast<char>(incident.second));
    out.push_back(static_cast<char>(incident.mechanism));
    out.push_back(static_cast<char>(incident.ego_causing_factor ? 1 : 0));
    put_f64(out, incident.relative_speed_kmh);
    put_f64(out, incident.min_distance_m);
    put_f64(out, incident.timestamp_hours);
}

Incident decode_record(std::string_view bytes, std::size_t offset,
                       const std::string& context) {
    const auto first = static_cast<unsigned char>(bytes[offset]);
    const auto second = static_cast<unsigned char>(bytes[offset + 1]);
    const auto mechanism = static_cast<unsigned char>(bytes[offset + 2]);
    const auto flags = static_cast<unsigned char>(bytes[offset + 3]);
    if (first >= kActorTypeCount || second >= kActorTypeCount || mechanism > 1 ||
        flags > 1) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         context + ": record field out of range (actor/mechanism/"
                                   "flag byte does not name a known value)");
    }
    Incident incident;
    incident.first = static_cast<ActorType>(first);
    incident.second = static_cast<ActorType>(second);
    incident.mechanism = static_cast<IncidentMechanism>(mechanism);
    incident.ego_causing_factor = flags != 0;
    incident.relative_speed_kmh = get_f64(bytes, offset + 4);
    incident.min_distance_m = get_f64(bytes, offset + 12);
    incident.timestamp_hours = get_f64(bytes, offset + 20);
    try {
        validate(incident);
    } catch (const std::exception& error) {
        throw StoreError(StoreErrorKind::Inconsistent,
                         context + ": record violates incident invariants: " +
                             error.what());
    }
    return incident;
}

}  // namespace qrn::store
