#include "qrn/serialize.h"

#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

namespace qrn {

namespace {

ConsequenceDomain domain_from_string(const std::string& s) {
    if (s == "quality") return ConsequenceDomain::Quality;
    if (s == "safety") return ConsequenceDomain::Safety;
    throw std::runtime_error("serialize: unknown consequence domain '" + s + "'");
}

ActorType actor_from_string(const std::string& s) {
    for (std::size_t i = 0; i < kActorTypeCount; ++i) {
        const ActorType a = actor_type_from_index(i);
        if (s == to_string(a)) return a;
    }
    throw std::runtime_error("serialize: unknown actor type '" + s + "'");
}

}  // namespace

json::Value to_json(const RiskNorm& norm) {
    json::Array classes;
    for (std::size_t j = 0; j < norm.size(); ++j) {
        const auto entry = norm.entry(j);
        classes.push_back(json::Value(json::Object{
            {"id", entry.consequence_class.id},
            {"name", entry.consequence_class.name},
            {"domain", std::string(to_string(entry.consequence_class.domain))},
            {"rank", entry.consequence_class.rank},
            {"example", entry.consequence_class.example},
            {"limit_per_hour", entry.limit.per_hour_value()},
        }));
    }
    return json::Value(json::Object{
        {"kind", "qrn.risk_norm"},
        {"name", norm.name()},
        {"classes", std::move(classes)},
    });
}

RiskNorm risk_norm_from_json(const json::Value& value) {
    if (!value.contains("kind") || value.at("kind").as_string() != "qrn.risk_norm") {
        throw std::runtime_error("risk_norm_from_json: not a qrn.risk_norm document");
    }
    std::vector<ConsequenceClass> classes;
    std::vector<Frequency> limits;
    for (const auto& entry : value.at("classes").as_array()) {
        ConsequenceClass c;
        c.id = entry.at("id").as_string();
        c.name = entry.at("name").as_string();
        c.domain = domain_from_string(entry.at("domain").as_string());
        const std::int64_t rank = entry.at("rank").as_integer();
        if (rank < std::numeric_limits<int>::min() ||
            rank > std::numeric_limits<int>::max()) {
            throw std::runtime_error("risk_norm_from_json: rank " +
                                     std::to_string(rank) + " does not fit an int");
        }
        c.rank = static_cast<int>(rank);
        c.example = entry.contains("example") ? entry.at("example").as_string() : "";
        classes.push_back(std::move(c));
        limits.push_back(Frequency::per_hour(entry.at("limit_per_hour").as_number()));
    }
    return RiskNorm(ConsequenceClassSet(std::move(classes)), std::move(limits),
                    value.at("name").as_string());
}

json::Value to_json(const IncidentTypeSet& types) {
    json::Array list;
    for (std::size_t k = 0; k < types.size(); ++k) {
        const IncidentType& t = types.at(k);
        json::Object margin;
        if (t.margin().mechanism() == IncidentMechanism::Collision) {
            const auto& band = t.margin().impact_band();
            margin = {{"kind", "impact_speed"},
                      {"lower_kmh", band.lower_kmh},
                      {"upper_kmh", std::isinf(band.upper_kmh)
                                        ? json::Value(nullptr)
                                        : json::Value(band.upper_kmh)}};
        } else {
            const auto& band = t.margin().proximity_band();
            margin = {{"kind", "proximity"},
                      {"max_distance_m", band.max_distance_m},
                      {"min_speed_kmh", band.min_speed_kmh}};
        }
        json::Object entry{
            {"id", t.id()},
            {"scope", t.is_induced() ? "induced" : "ego"},
            {"counterparty", std::string(to_string(t.counterparty()))},
            {"margin", std::move(margin)},
            {"description", t.description()},
        };
        if (t.is_induced()) {
            entry.insert(entry.begin() + 3,
                         {"second_party", std::string(to_string(t.second_party()))});
        }
        list.push_back(json::Value(std::move(entry)));
    }
    return json::Value(json::Object{
        {"kind", "qrn.incident_types"},
        {"types", std::move(list)},
    });
}

IncidentTypeSet incident_types_from_json(const json::Value& value) {
    if (!value.contains("kind") ||
        value.at("kind").as_string() != "qrn.incident_types") {
        throw std::runtime_error(
            "incident_types_from_json: not a qrn.incident_types document");
    }
    std::vector<IncidentType> out;
    for (const auto& entry : value.at("types").as_array()) {
        const auto& margin = entry.at("margin");
        const std::string kind = margin.at("kind").as_string();
        std::optional<ToleranceMargin> tolerance;
        if (kind == "impact_speed") {
            const double lower = margin.at("lower_kmh").as_number();
            const double upper =
                margin.at("upper_kmh").is_null()
                    ? std::numeric_limits<double>::infinity()
                    : margin.at("upper_kmh").as_number();
            tolerance = ToleranceMargin::impact_speed(lower, upper);
        } else if (kind == "proximity") {
            tolerance = ToleranceMargin::proximity(
                margin.at("max_distance_m").as_number(),
                margin.at("min_speed_kmh").as_number());
        } else {
            throw std::runtime_error("incident_types_from_json: unknown margin kind '" +
                                     kind + "'");
        }
        const std::string description =
            entry.contains("description") ? entry.at("description").as_string() : "";
        const bool is_induced =
            entry.contains("scope") && entry.at("scope").as_string() == "induced";
        if (is_induced) {
            out.push_back(IncidentType::induced(
                entry.at("id").as_string(),
                actor_from_string(entry.at("counterparty").as_string()),
                actor_from_string(entry.at("second_party").as_string()), *tolerance,
                description));
        } else {
            out.emplace_back(entry.at("id").as_string(),
                             actor_from_string(entry.at("counterparty").as_string()),
                             *tolerance, description);
        }
    }
    return IncidentTypeSet(std::move(out));
}

json::Value to_json(const Allocation& allocation, const IncidentTypeSet& types) {
    if (allocation.budgets.size() != types.size()) {
        throw std::invalid_argument("to_json(Allocation): budget/type count mismatch");
    }
    json::Array budgets;
    for (std::size_t k = 0; k < types.size(); ++k) {
        budgets.push_back(json::Value(json::Object{
            {"incident_type", types.at(k).id()},
            {"budget_per_hour", allocation.budgets[k].per_hour_value()},
        }));
    }
    json::Array usage;
    for (const auto& u : allocation.usage) {
        usage.push_back(json::Value(json::Object{
            {"class", u.class_id},
            {"limit_per_hour", u.limit.per_hour_value()},
            {"used_per_hour", u.used.per_hour_value()},
            {"utilization", u.utilization},
        }));
    }
    return json::Value(json::Object{
        {"kind", "qrn.allocation"},
        {"solver", allocation.solver},
        {"budgets", std::move(budgets)},
        {"class_usage", std::move(usage)},
    });
}

json::Value to_json(const VerificationReport& report) {
    json::Array goals;
    for (const auto& g : report.goals) {
        goals.push_back(json::Value(json::Object{
            {"incident_type", g.incident_type_id},
            {"budget_per_hour", g.budget.per_hour_value()},
            {"point_rate_per_hour", g.point_rate.per_hour_value()},
            {"upper_rate_per_hour", g.upper_rate.per_hour_value()},
            {"verdict", std::string(to_string(g.verdict))},
        }));
    }
    json::Array classes;
    for (const auto& c : report.classes) {
        classes.push_back(json::Value(json::Object{
            {"class", c.class_id},
            {"limit_per_hour", c.limit.per_hour_value()},
            {"point_usage_per_hour", c.point_usage.per_hour_value()},
            {"upper_usage_per_hour", c.upper_usage.per_hour_value()},
            {"verdict", std::string(to_string(c.verdict))},
        }));
    }
    return json::Value(json::Object{
        {"kind", "qrn.verification"},
        {"confidence", report.confidence},
        {"norm_fulfilled", report.norm_fulfilled()},
        {"goals", std::move(goals)},
        {"classes", std::move(classes)},
    });
}

json::Value evidence_to_json(const std::vector<TypeEvidence>& evidence) {
    json::Array events;
    double hours = 0.0;
    for (const auto& e : evidence) {
        hours = e.exposure.hours();
        events.push_back(json::Value(json::Object{
            {"incident_type", e.incident_type_id},
            {"events", static_cast<double>(e.events)},
        }));
    }
    return json::Value(json::Object{
        {"kind", "qrn.evidence"},
        {"exposure_hours", hours},
        {"events", std::move(events)},
    });
}

std::vector<TypeEvidence> evidence_from_json(const json::Value& value) {
    if (!value.is_object() || !value.contains("kind") ||
        !value.at("kind").is_string() ||
        value.at("kind").as_string() != "qrn.evidence") {
        throw std::runtime_error("not a qrn.evidence document (kind must be "
                                 "\"qrn.evidence\")");
    }
    if (!value.contains("exposure_hours") ||
        !value.at("exposure_hours").is_number()) {
        throw std::runtime_error("exposure_hours: expected a number");
    }
    const double hours = value.at("exposure_hours").as_number();
    if (!std::isfinite(hours) || hours <= 0.0) {
        throw std::runtime_error("exposure_hours: must be finite and > 0 (got " +
                                 std::to_string(hours) + ")");
    }
    if (!value.contains("events") || !value.at("events").is_array()) {
        throw std::runtime_error("events: expected an array");
    }
    std::vector<TypeEvidence> out;
    const auto& entries = value.at("events").as_array();
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const std::string where = "events[" + std::to_string(i) + "]";
        const auto& entry = entries[i];
        if (!entry.is_object() || !entry.contains("incident_type") ||
            !entry.at("incident_type").is_string()) {
            throw std::runtime_error(where +
                                     ".incident_type: expected a string");
        }
        if (!entry.contains("events") || !entry.at("events").is_number()) {
            throw std::runtime_error(where + ".events: expected a number");
        }
        const double count = entry.at("events").as_number();
        if (!std::isfinite(count) || count < 0.0 ||
            count != std::floor(count) || count > 1e18) {
            throw std::runtime_error(where +
                                     ".events: must be a non-negative integer "
                                     "(got " +
                                     std::to_string(count) + ")");
        }
        TypeEvidence e;
        e.incident_type_id = entry.at("incident_type").as_string();
        e.events = static_cast<std::uint64_t>(count);
        e.exposure = ExposureHours(hours);
        out.push_back(std::move(e));
    }
    return out;
}

}  // namespace qrn
