// Artifact serialization: round trips for authored artifacts, snapshot
// structure for derived ones.
#include "qrn/serialize.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "qrn/banding.h"
#include "qrn/injury_risk.h"

namespace qrn {
namespace {

TEST(RiskNormJson, RoundTrip) {
    const auto norm = RiskNorm::paper_example();
    const auto restored = risk_norm_from_json(json::parse(to_json(norm).dump(2)));
    EXPECT_EQ(restored.name(), norm.name());
    ASSERT_EQ(restored.size(), norm.size());
    for (std::size_t j = 0; j < norm.size(); ++j) {
        EXPECT_EQ(restored.classes().at(j).id, norm.classes().at(j).id);
        EXPECT_EQ(restored.classes().at(j).domain, norm.classes().at(j).domain);
        EXPECT_EQ(restored.classes().at(j).rank, norm.classes().at(j).rank);
        EXPECT_DOUBLE_EQ(restored.limit(j).per_hour_value(),
                         norm.limit(j).per_hour_value());
    }
}

TEST(RiskNormJson, RejectsWrongKind) {
    EXPECT_THROW(risk_norm_from_json(json::parse(R"({"kind":"other"})")),
                 std::runtime_error);
    EXPECT_THROW(risk_norm_from_json(json::parse("{}")), std::runtime_error);
}

TEST(RiskNormJson, RejectsARankThatIsNotAnInt) {
    // 1.5 used to load as rank 1, and the others went through an
    // undefined double -> int cast.
    const std::string doc = to_json(RiskNorm::paper_example()).dump();
    const auto pos = doc.find("\"rank\":1,");
    ASSERT_NE(pos, std::string::npos);
    for (const std::string rank : {"1.5", "1e300", "18446744073709551616", "4294967296"}) {
        std::string bad = doc;
        bad.replace(pos, 9, "\"rank\":" + rank + ",");
        EXPECT_THROW(risk_norm_from_json(json::parse(bad)), std::runtime_error) << rank;
    }
}

TEST(RiskNormJson, ParsedNormStillValidatesInvariants) {
    // Tampering with the serialized form must not bypass construction
    // checks: swap two limits so monotonicity breaks.
    auto doc = to_json(RiskNorm::paper_example()).dump();
    const auto pos1 = doc.find("0.001");
    const auto pos2 = doc.find("1e-08");
    ASSERT_NE(pos1, std::string::npos);
    ASSERT_NE(pos2, std::string::npos);
    doc.replace(pos1, 5, "1e-08");
    EXPECT_THROW(risk_norm_from_json(json::parse(doc)), std::invalid_argument);
}

TEST(IncidentTypesJson, RoundTripPaperExample) {
    const auto types = IncidentTypeSet::paper_vru_example();
    const auto restored =
        incident_types_from_json(json::parse(to_json(types).dump()));
    ASSERT_EQ(restored.size(), types.size());
    for (std::size_t k = 0; k < types.size(); ++k) {
        EXPECT_EQ(restored.at(k).id(), types.at(k).id());
        EXPECT_EQ(restored.at(k).counterparty(), types.at(k).counterparty());
        EXPECT_EQ(restored.at(k).margin().to_string(), types.at(k).margin().to_string());
        EXPECT_EQ(restored.at(k).description(), types.at(k).description());
    }
}

TEST(IncidentTypesJson, RoundTripUnboundedBand) {
    // The generated complete catalog has open-ended top bands (upper =
    // infinity), which must survive via null.
    const InjuryRiskModel model;
    const auto types = generate_complete_types(model);
    const auto restored =
        incident_types_from_json(json::parse(to_json(types).dump()));
    ASSERT_EQ(restored.size(), types.size());
    const auto top_index = restored.index_of("I-VRU-C3");
    ASSERT_TRUE(top_index.has_value());
    const auto& top = restored.at(*top_index);
    EXPECT_TRUE(std::isinf(top.margin().impact_band().upper_kmh));
}

TEST(IncidentTypesJson, RoundTripInducedTypes) {
    const IncidentTypeSet types({
        IncidentType("I2", ActorType::Vru, ToleranceMargin::impact_speed(0.0, 10.0)),
        IncidentType::induced("J1", ActorType::Car, ActorType::Vru,
                              ToleranceMargin::impact_speed(0.0, 70.0), "swerve crash"),
    });
    const auto restored = incident_types_from_json(json::parse(to_json(types).dump(2)));
    ASSERT_EQ(restored.size(), 2u);
    EXPECT_FALSE(restored.at(0).is_induced());
    EXPECT_TRUE(restored.at(1).is_induced());
    EXPECT_EQ(restored.at(1).counterparty(), ActorType::Car);
    EXPECT_EQ(restored.at(1).second_party(), ActorType::Vru);
    EXPECT_EQ(restored.at(1).description(), "swerve crash");
    EXPECT_EQ(restored.at(1).interaction_text(), types.at(1).interaction_text());
}

TEST(IncidentTypesJson, RejectsUnknownMarginKind) {
    EXPECT_THROW(
        incident_types_from_json(json::parse(
            R"({"kind":"qrn.incident_types","types":[{"id":"X","counterparty":"VRU",
                "margin":{"kind":"teleport"},"description":""}]})")),
        std::runtime_error);
}

TEST(AllocationJson, SnapshotStructure) {
    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel model;
    const auto matrix =
        ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});
    const AllocationProblem problem(norm, types, matrix);
    const auto allocation = allocate_water_filling(problem);
    const auto doc = to_json(allocation, types);
    EXPECT_EQ(doc.at("kind").as_string(), "qrn.allocation");
    EXPECT_EQ(doc.at("solver").as_string(), "water-filling");
    ASSERT_EQ(doc.at("budgets").as_array().size(), 3u);
    EXPECT_EQ(doc.at("budgets").as_array()[1].at("incident_type").as_string(), "I2");
    ASSERT_EQ(doc.at("class_usage").as_array().size(), 6u);
    // Parsable output.
    EXPECT_NO_THROW((void)json::parse(doc.dump(2)));
}

TEST(VerificationJson, SnapshotStructure) {
    const auto norm = RiskNorm::paper_example();
    const auto types = IncidentTypeSet::paper_vru_example();
    const InjuryRiskModel model;
    const auto matrix =
        ContributionMatrix::from_injury_model(norm, types, model, {0.6, 0.4});
    const AllocationProblem problem(norm, types, matrix);
    const auto allocation = allocate_water_filling(problem);
    const std::vector<TypeEvidence> evidence{{"I1", 0, ExposureHours(1e12)},
                                             {"I2", 0, ExposureHours(1e12)},
                                             {"I3", 0, ExposureHours(1e12)}};
    const auto report = verify_against_evidence(problem, allocation, evidence, 0.95);
    const auto doc = to_json(report);
    EXPECT_EQ(doc.at("kind").as_string(), "qrn.verification");
    EXPECT_TRUE(doc.at("norm_fulfilled").as_bool());
    EXPECT_DOUBLE_EQ(doc.at("confidence").as_number(), 0.95);
    EXPECT_EQ(doc.at("goals").as_array().size(), 3u);
    EXPECT_EQ(doc.at("classes").as_array()[0].at("verdict").as_string(), "FULFILLED");
}

}  // namespace
}  // namespace qrn
