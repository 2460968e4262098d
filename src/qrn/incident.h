// The incident record: the unit of observation in the QRN approach.
//
// The paper uses "incident" as the generic term covering both quality-
// related incidents and safety-related accidents (accidents are a subset of
// incidents, Sec. III-B footnote 2). An incident involves the ego vehicle
// (or, for induced incidents, other actors for which ego is a causing
// factor) and is characterised by the actors involved and a tolerance-
// margin measurement: impact speed for collisions, distance/relative speed
// for near-miss quality incidents.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace qrn {

/// Traffic actor categories from the paper's Fig. 4 classification
/// (<object_type> is "a complete and unique set", Sec. III-B).
enum class ActorType : std::uint8_t {
    EgoVehicle,    ///< The ADS-equipped vehicle.
    Car,           ///< Other passenger car.
    Truck,         ///< Heavy goods vehicle / bus.
    Vru,           ///< Vulnerable road user (pedestrian, cyclist, ...).
    Animal,        ///< Large animal, e.g. the paper's Ego<->Elk example.
    StaticObject,  ///< Stationary obstacle / infrastructure.
    OtherActor,    ///< Catch-all keeping the actor set collectively exhaustive.
};

[[nodiscard]] std::string_view to_string(ActorType type) noexcept;

/// Number of distinct ActorType values (for iteration in samplers/tests).
inline constexpr std::size_t kActorTypeCount = 7;

[[nodiscard]] ActorType actor_type_from_index(std::size_t index);

/// What physically happened; partitions the incident space at the top.
enum class IncidentMechanism : std::uint8_t {
    Collision,  ///< Physical contact; tolerance margin = impact speed.
    NearMiss,   ///< No contact but proximity violation; margin = distance+speed.
};

[[nodiscard]] std::string_view to_string(IncidentMechanism mechanism) noexcept;

/// One observed or simulated incident.
///
/// Plain data; invariants (non-negative measurements, distinct actors for
/// induced incidents) are enforced by `validate`, which the simulator and
/// the classification tree call at ingestion.
struct Incident {
    /// First actor. For ego-involved incidents this is EgoVehicle; for
    /// induced incidents (lower half of Fig. 4) it is the first third-party
    /// actor, with `ego_causing_factor` set.
    ActorType first = ActorType::EgoVehicle;
    /// The counterparty actor.
    ActorType second = ActorType::Car;
    IncidentMechanism mechanism = IncidentMechanism::Collision;
    /// True when ego is not a party but caused the incident (induced).
    bool ego_causing_factor = false;
    /// Impact speed delta-v in km/h (collisions) or closing speed in km/h
    /// (near misses). Non-negative.
    double relative_speed_kmh = 0.0;
    /// Minimum separation in metres (near misses; 0 for collisions).
    double min_distance_m = 0.0;
    /// Simulation timestamp (operational hours since fleet start); metadata.
    double timestamp_hours = 0.0;

    /// True iff ego is one of the two parties.
    [[nodiscard]] bool involves_ego() const noexcept {
        return first == ActorType::EgoVehicle || second == ActorType::EgoVehicle;
    }

    friend bool operator==(const Incident&, const Incident&) = default;
};

// Logs hold incidents as plain rows (std::vector<Incident>). With the four
// one-byte fields packed ahead of the three doubles a row is 32 bytes, 4
// more than the store's 28-byte record; placing the flag after a double
// would pad the struct to 40.
static_assert(sizeof(Incident) == 32, "Incident rows must stay 32 bytes");

/// Checks the structural invariants; throws std::invalid_argument with a
/// description of the first violated one.
void validate(const Incident& incident);

/// Compact single-line rendering for logs and test diagnostics.
[[nodiscard]] std::string describe(const Incident& incident);

}  // namespace qrn
