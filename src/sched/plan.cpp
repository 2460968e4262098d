#include "sched/plan.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <filesystem>
#include <fstream>

#include "qrn/json.h"
#include "qrn/serialize.h"
#include "store/cache_key.h"
#include "store/format.h"
#include "store/sync.h"

namespace qrn::sched {

namespace {

constexpr std::string_view kPlanKind = "qrn.sched.plan";
constexpr int kPlanSchemaVersion = 1;

std::uint64_t plan_u64(const qrn::json::Value& value, const std::string& what) {
    try {
        const std::int64_t n = value.as_integer();
        if (n >= 0) return static_cast<std::uint64_t>(n);
    } catch (const std::runtime_error& e) {
        throw SchedError("campaign plan field '" + what + "': " + e.what());
    }
    throw SchedError("campaign plan field '" + what + "' is negative");
}

constexpr std::string_view kFleetPrefix = "fleet-";

/// Room for the longest fleet node id: "fleet-" and the 20 digits of the
/// largest std::uint64_t.
using FleetIdBuffer = std::array<char, 26>;

/// Spells fleet `fleet_index`'s node id at the end of `out` and returns
/// it: "fleet-", then the index zero-padded to at least five digits.
std::string_view spell_fleet_id(std::uint64_t fleet_index, FleetIdBuffer& out) {
    char* const end = out.data() + out.size();
    char* at = end;
    do {
        *--at = static_cast<char>('0' + fleet_index % 10);
        fleet_index /= 10;
    } while (fleet_index != 0);
    while (end - at < 5) *--at = '0';
    at -= kFleetPrefix.size();
    std::copy(kFleetPrefix.begin(), kFleetPrefix.end(), at);
    return {at, static_cast<std::size_t>(end - at)};
}

}  // namespace

std::string plan_node_id(std::uint64_t fleet_index) {
    FleetIdBuffer buffer;
    return std::string(spell_fleet_id(fleet_index, buffer));
}

std::optional<std::uint64_t> fleet_index_of(std::string_view id) {
    if (!id.starts_with(kFleetPrefix)) return std::nullopt;
    const std::string_view digits = id.substr(kFleetPrefix.size());
    std::uint64_t value = 0;
    const auto [end, error] =
        std::from_chars(digits.data(), digits.data() + digits.size(), value);
    FleetIdBuffer buffer;
    if (error != std::errc() || end != digits.data() + digits.size() ||
        spell_fleet_id(value, buffer) != id) {
        return std::nullopt;
    }
    return value;
}

std::string campaign_inputs_digest() {
    return to_json(IncidentTypeSet::paper_vru_example()).dump();
}

CampaignPlan make_plan(std::string policy, std::string odd,
                       const sim::CampaignConfig& config,
                       std::string_view inputs_digest) {
    if (config.fleets == 0) {
        throw SchedError("make_plan: campaign must have at least one fleet");
    }
    CampaignPlan plan;
    plan.policy = std::move(policy);
    plan.odd = std::move(odd);
    plan.seed = config.base.seed;
    plan.fleets = config.fleets;
    plan.hours_per_fleet = config.hours_per_fleet;
    const store::CampaignKeys keys(config.base, config.hours_per_fleet,
                                   inputs_digest);
    plan.nodes.reserve(config.fleets);
    for (std::size_t i = 0; i < config.fleets; ++i) {
        plan.nodes.push_back(PlanNode{i, keys.fleet_key(i)});
    }
    return plan;
}

sim::CampaignConfig config_from_plan(const CampaignPlan& plan) {
    const auto policy = sim::TacticalPolicy::named(plan.policy);
    if (!policy) {
        throw SchedError("campaign plan names unknown policy '" + plan.policy +
                         "' (a plan from a different build?)");
    }
    const auto odd = sim::Odd::named(plan.odd);
    if (!odd) {
        throw SchedError("campaign plan names unknown ODD '" + plan.odd +
                         "' (a plan from a different build?)");
    }
    sim::CampaignConfig config;
    config.base.policy = *policy;
    config.base.odd = *odd;
    config.base.seed = plan.seed;
    config.fleets = plan.fleets;
    config.hours_per_fleet = plan.hours_per_fleet;
    return config;
}

void verify_plan_keys(const CampaignPlan& plan, std::string_view inputs_digest) {
    const sim::CampaignConfig config = config_from_plan(plan);
    const store::CampaignKeys keys(config.base, config.hours_per_fleet,
                                   inputs_digest);
    for (const PlanNode& node : plan.nodes) {
        const std::uint64_t key = keys.fleet_key(node.fleet_index);
        if (key != node.key) {
            throw SchedError(
                "plan key mismatch for " + plan_node_id(node.fleet_index) +
                ": plan says " + store::key_hex(node.key) +
                ", this build computes " + store::key_hex(key) +
                " (config or catalog skew; refusing to produce divergent "
                "shards)");
        }
    }
}

std::string plan_path(const std::string& store_dir) {
    return store_dir + "/sched/plan.json";
}

std::string lease_dir(const std::string& store_dir) {
    return store_dir + "/sched/leases";
}

void write_plan(const std::string& store_dir, const CampaignPlan& plan) {
    namespace json = qrn::json;
    std::error_code ec;
    std::filesystem::create_directories(lease_dir(store_dir), ec);
    if (ec) {
        throw store::StoreError(store::StoreErrorKind::Io,
                                "cannot create '" + lease_dir(store_dir) +
                                    "': " + ec.message());
    }

    json::Array nodes;
    nodes.reserve(plan.nodes.size());
    for (const PlanNode& node : plan.nodes) {
        json::Object row;
        row.emplace_back("fleet_index",
                         json::Value(static_cast<std::size_t>(node.fleet_index)));
        row.emplace_back("key", json::Value(store::key_hex(node.key)));
        nodes.emplace_back(std::move(row));
    }
    json::Object doc;
    doc.emplace_back("kind", json::Value(std::string(kPlanKind)));
    doc.emplace_back("schema_version", json::Value(kPlanSchemaVersion));
    doc.emplace_back("policy", json::Value(plan.policy));
    doc.emplace_back("odd", json::Value(plan.odd));
    doc.emplace_back("seed", json::Value(store::key_hex(plan.seed)));
    doc.emplace_back("hours_bits",
                     json::Value(store::key_hex(
                         std::bit_cast<std::uint64_t>(plan.hours_per_fleet))));
    // Informational rendering only; the bits above are authoritative.
    doc.emplace_back("hours_per_fleet", json::Value(plan.hours_per_fleet));
    doc.emplace_back("fleets", json::Value(static_cast<std::size_t>(plan.fleets)));
    doc.emplace_back("nodes", json::Value(std::move(nodes)));

    const std::string path = plan_path(store_dir);
    const std::string tmp = path + std::string(store::kTempSuffix);
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            throw store::StoreError(store::StoreErrorKind::Io,
                                    "cannot open '" + tmp + "' for writing");
        }
        out << json::Value(std::move(doc)).dump(2) << '\n';
        out.flush();
        if (!out.good()) {
            throw store::StoreError(store::StoreErrorKind::Io,
                                    "I/O error while writing plan '" + tmp + "'");
        }
    }
    store::sync_file(tmp);
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw store::StoreError(store::StoreErrorKind::Io,
                                "cannot rename '" + tmp + "' to '" + path +
                                    "': " + ec.message());
    }
    store::sync_directory(store_dir + "/sched");
}

std::optional<CampaignPlan> read_plan(const std::string& store_dir) {
    const std::string path = plan_path(store_dir);
    const std::optional<std::string> text = store::read_whole_file(path);
    if (!text) return std::nullopt;

    namespace json = qrn::json;
    CampaignPlan plan;
    try {
        const json::Value doc = json::parse(*text);
        if (doc.at("kind").as_string() != kPlanKind) {
            throw SchedError("'" + path + "' is not a campaign plan (kind '" +
                             doc.at("kind").as_string() + "')");
        }
        const auto version = plan_u64(doc.at("schema_version"), "schema_version");
        if (version != static_cast<std::uint64_t>(kPlanSchemaVersion)) {
            throw SchedError("plan '" + path + "' has schema version " +
                             std::to_string(version) + "; this build reads " +
                             std::to_string(kPlanSchemaVersion));
        }
        plan.policy = doc.at("policy").as_string();
        plan.odd = doc.at("odd").as_string();
        plan.seed = store::key_from_hex(doc.at("seed").as_string());
        plan.hours_per_fleet = std::bit_cast<double>(
            store::key_from_hex(doc.at("hours_bits").as_string()));
        plan.fleets = plan_u64(doc.at("fleets"), "fleets");
        for (const json::Value& row : doc.at("nodes").as_array()) {
            PlanNode node;
            node.fleet_index = plan_u64(row.at("fleet_index"), "fleet_index");
            node.key = store::key_from_hex(row.at("key").as_string());
            plan.nodes.push_back(node);
        }
    } catch (const SchedError&) {
        throw;
    } catch (const std::exception& e) {
        throw SchedError("plan '" + path + "' is malformed: " + e.what());
    }
    if (plan.fleets == 0 || plan.nodes.size() != plan.fleets) {
        throw SchedError("plan '" + path + "' declares " +
                         std::to_string(plan.fleets) + " fleet(s) but lists " +
                         std::to_string(plan.nodes.size()) + " node(s)");
    }
    for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
        if (plan.nodes[i].fleet_index != i) {
            throw SchedError("plan '" + path +
                             "' nodes are not in fleet order at position " +
                             std::to_string(i));
        }
    }
    return plan;
}

Dag build_campaign_dag(const CampaignPlan& plan) {
    const std::size_t fleets = plan.nodes.size();
    FleetIdBuffer buffer;
    // In fleet order the last fleet's id is the longest.
    const std::size_t fleet_id_bytes =
        fleets == 0 ? 0 : spell_fleet_id(plan.nodes.back().fleet_index, buffer).size();
    Dag dag;
    dag.reserve(fleets + 3, 2 * fleets + 1,
                kGenerateNode.size() + kAggregateNode.size() + kVerifyNode.size() +
                    fleets * fleet_id_bytes);
    const std::size_t generate = dag.add_node(kGenerateNode, 1.0);
    const std::size_t aggregate = dag.add_node(kAggregateNode, 1.0);
    const std::size_t verify = dag.add_node(kVerifyNode, 1.0);
    for (const PlanNode& node : plan.nodes) {
        const std::size_t fleet = dag.add_node(spell_fleet_id(node.fleet_index, buffer),
                                               plan.hours_per_fleet);
        dag.add_edge(generate, fleet);
        dag.add_edge(fleet, aggregate);
    }
    dag.add_edge(aggregate, verify);
    dag.build();
    return dag;
}

}  // namespace qrn::sched
