// End-to-end tests of the qrn CLI binary: each subcommand runs, emits the
// documented JSON, and the allocate->verify file flow closes.
#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrn/json.h"

namespace {

#ifndef QRN_CLI_PATH
#error "QRN_CLI_PATH must be defined by the build"
#endif

struct CommandResult {
    int exit_code = -1;
    std::string output;  // stdout only
};

CommandResult run_pipe(const std::string& command) {
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("popen failed");
    CommandResult result;
    std::array<char, 4096> buffer{};
    std::size_t n = 0;
    // qrn-lint: allow(raw-file-io) draining a popen pipe of a spawned CLI, not a shard
    while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
        result.output.append(buffer.data(), n);
    }
    const int status = pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

CommandResult run_cli(const std::string& arguments) {
    return run_pipe(std::string(QRN_CLI_PATH) + " " + arguments + " 2>/dev/null");
}

/// Runs the CLI capturing stderr (stdout discarded) - the channel the
/// one-line parse diagnostics are printed on.
CommandResult run_cli_stderr(const std::string& arguments) {
    return run_pipe(std::string(QRN_CLI_PATH) + " " + arguments +
                    " 2>&1 1>/dev/null");
}

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "qrn_cli_" + name;
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream f(path);
    ASSERT_TRUE(f.is_open());
    f << content;
}

TEST(Cli, NoCommandShowsUsage) {
    // Exit-code contract: usage errors are 1 (0 ok, 2 norm not fulfilled,
    // 3 I/O error).
    EXPECT_EQ(run_cli("").exit_code, 1);
    EXPECT_EQ(run_cli("bogus-command").exit_code, 1);
    const auto usage = run_cli_stderr("bogus-command");
    EXPECT_NE(usage.output.find("usage: qrn"), std::string::npos);
}

TEST(Cli, NormExampleEmitsValidDocument) {
    const auto result = run_cli("norm-example");
    ASSERT_EQ(result.exit_code, 0);
    const auto doc = qrn::json::parse(result.output);
    EXPECT_EQ(doc.at("kind").as_string(), "qrn.risk_norm");
    EXPECT_EQ(doc.at("classes").as_array().size(), 6u);
}

TEST(Cli, TypesExampleEmitsValidDocument) {
    const auto result = run_cli("types-example");
    ASSERT_EQ(result.exit_code, 0);
    const auto doc = qrn::json::parse(result.output);
    EXPECT_EQ(doc.at("kind").as_string(), "qrn.incident_types");
    EXPECT_EQ(doc.at("types").as_array().size(), 3u);
}

TEST(Cli, TypesGenerateRespectsThresholds) {
    const auto result = run_cli("types-generate --thresholds 0.5");
    ASSERT_EQ(result.exit_code, 0);
    const auto doc = qrn::json::parse(result.output);
    // 6 counterparties x (2 bands + near miss).
    EXPECT_EQ(doc.at("types").as_array().size(), 18u);
}

TEST(Cli, AllocateVerifyFileFlow) {
    const std::string norm_path = temp_path("norm.json");
    const std::string types_path = temp_path("types.json");
    const std::string evidence_path = temp_path("evidence.json");

    write_file(norm_path, run_cli("norm-example").output);
    write_file(types_path, run_cli("types-example").output);

    const auto allocation = run_cli("allocate --norm " + norm_path + " --types " +
                                    types_path + " --solver proportional");
    ASSERT_EQ(allocation.exit_code, 0);
    const auto alloc_doc = qrn::json::parse(allocation.output);
    EXPECT_EQ(alloc_doc.at("solver").as_string(), "proportional");
    EXPECT_EQ(alloc_doc.at("budgets").as_array().size(), 3u);

    // Clean evidence over a huge exposure must verify.
    write_file(evidence_path, R"({"kind":"qrn.evidence","exposure_hours":1e12,
      "events":[{"incident_type":"I1","events":0},
                {"incident_type":"I2","events":0},
                {"incident_type":"I3","events":0}]})");
    const auto verify = run_cli("verify --norm " + norm_path + " --types " +
                                types_path + " --evidence " + evidence_path);
    EXPECT_EQ(verify.exit_code, 0);
    const auto verify_doc = qrn::json::parse(verify.output);
    EXPECT_TRUE(verify_doc.at("norm_fulfilled").as_bool());

    // Catastrophic evidence must fail with the documented exit code 2.
    write_file(evidence_path, R"({"kind":"qrn.evidence","exposure_hours":10,
      "events":[{"incident_type":"I1","events":1000},
                {"incident_type":"I2","events":1000},
                {"incident_type":"I3","events":1000}]})");
    const auto failing = run_cli("verify --norm " + norm_path + " --types " +
                                 types_path + " --evidence " + evidence_path);
    EXPECT_EQ(failing.exit_code, 2);

    std::remove(norm_path.c_str());
    std::remove(types_path.c_str());
    std::remove(evidence_path.c_str());
}

TEST(Cli, SimulateEmitsEvidence) {
    const auto result = run_cli("simulate --hours 50 --policy cautious --seed 7");
    ASSERT_EQ(result.exit_code, 0);
    const auto doc = qrn::json::parse(result.output);
    EXPECT_EQ(doc.at("kind").as_string(), "qrn.evidence");
    EXPECT_DOUBLE_EQ(doc.at("exposure_hours").as_number(), 50.0);
    EXPECT_EQ(doc.at("events").as_array().size(), 3u);
}

TEST(Cli, SimulateIsDeterministicPerSeed) {
    const auto a = run_cli("simulate --hours 30 --seed 5");
    const auto b = run_cli("simulate --hours 30 --seed 5");
    EXPECT_EQ(a.output, b.output);
}

TEST(Cli, MissingFilesAndOptionsFailCleanly) {
    // Unreadable input files are I/O errors (exit 3), distinct from the
    // argv parse errors (exit 1).
    const auto missing =
        run_cli_stderr("allocate --norm /no/such.json --types /no/such.json");
    EXPECT_EQ(missing.exit_code, 3);
    EXPECT_NE(missing.output.find("/no/such.json"), std::string::npos);
    EXPECT_EQ(run_cli("verify --norm /no/such.json --types x --evidence y").exit_code,
              3);
    EXPECT_EQ(run_cli("allocate").exit_code, 1);
    EXPECT_EQ(run_cli("simulate").exit_code, 1);  // --hours missing
    EXPECT_EQ(run_cli("simulate --hours 10 --policy bogus").exit_code, 1);
}

TEST(Cli, JobsFlagValidation) {
    // Invalid --jobs values fail loudly with exit code 1 on every
    // subcommand that accepts the flag.
    EXPECT_EQ(run_cli("simulate --hours 10 --jobs 0").exit_code, 1);
    EXPECT_EQ(run_cli("simulate --hours 10 --jobs -2").exit_code, 1);
    EXPECT_EQ(run_cli("simulate --hours 10 --jobs many").exit_code, 1);
    EXPECT_EQ(run_cli("simulate --hours 10 --jobs 2x").exit_code, 1);
    EXPECT_EQ(run_cli("campaign --fleets 2 --hours 10 --jobs 0").exit_code, 1);
    EXPECT_EQ(run_cli("pipeline --hours 500 --jobs nope").exit_code, 1);
}

// One row of the malformed-input matrix: a bad command line, plus two
// substrings (the flag and the quoted offending value) that the one-line
// stderr diagnostic must contain. Rows with `accepts_jobs` run under both
// --jobs 1 and --jobs 2 so the diagnostics are identical on every worker
// count - the contract machine-generated campaign inputs will rely on.
struct BadArgvCase {
    const char* args;
    const char* flag;
    const char* value;
    bool accepts_jobs;
};

void expect_one_line_parse_error(const std::string& arguments,
                                 const BadArgvCase& expected) {
    const auto result = run_cli_stderr(arguments);
    EXPECT_EQ(result.exit_code, 1) << arguments;
    EXPECT_NE(result.output.find(expected.flag), std::string::npos)
        << arguments << " stderr: " << result.output;
    EXPECT_NE(result.output.find(expected.value), std::string::npos)
        << arguments << " stderr: " << result.output;
    // One-line contract: the diagnostic is a single stderr line.
    EXPECT_EQ(result.output.find('\n'), result.output.size() - 1)
        << arguments << " stderr: " << result.output;
    EXPECT_EQ(result.output.rfind("qrn: ", 0), 0u)
        << arguments << " stderr: " << result.output;
}

TEST(Cli, MalformedArgvMatrix) {
    const std::vector<BadArgvCase> matrix = {
        // types-generate: threshold lists
        {"types-generate --thresholds 1,,2", "--thresholds", "'1,,2'", false},
        {"types-generate --thresholds 0.6,0.1", "--thresholds", "'0.6,0.1'", false},
        {"types-generate --thresholds 0.1,0.1", "--thresholds", "increasing", false},
        {"types-generate --thresholds nan", "--thresholds", "'nan'", false},
        {"types-generate --thresholds 0.1,0.6x", "--thresholds", "'0.6x'", false},
        {"types-generate --thresholds -0.1,0.6", "--thresholds", "positive", false},
        // allocate: ethics cap and solver name (diagnosed before file I/O)
        {"allocate --ethics 0", "--ethics", "'0'", false},
        {"allocate --ethics 1.5", "--ethics", "(0, 1]", false},
        {"allocate --ethics abc", "--ethics", "'abc'", false},
        {"allocate --solver bogus", "--solver", "'bogus'", false},
        {"allocate --solver bogus", "--solver", "water-filling", false},
        // verify: confidence strictly inside (0, 1)
        {"verify --confidence 1", "--confidence", "(0, 1)", false},
        {"verify --confidence 0", "--confidence", "'0'", false},
        {"verify --confidence 0.95x", "--confidence", "'0.95x'", false},
        {"verify --confidence -0.5", "--confidence", "'-0.5'", false},
        // simulate: hours, seed, enum names
        {"simulate --hours 0", "--hours", "'0'", true},
        {"simulate --hours -5", "--hours", "'-5'", true},
        {"simulate --hours inf", "--hours", "'inf'", true},
        {"simulate --hours nan", "--hours", "'nan'", true},
        {"simulate --hours 10h", "--hours", "'10h'", true},
        {"simulate --hours 1e999", "--hours", "'1e999'", true},
        {"simulate --hours 10 --seed -1", "--seed", "'-1'", true},
        {"simulate --hours 10 --seed +1", "--seed", "'+1'", true},
        {"simulate --hours 10 --seed 1.5", "--seed", "'1.5'", true},
        {"simulate --hours 10 --seed 18446744073709551616", "--seed",
         "'18446744073709551616'", true},
        {"simulate --hours 10 --policy bogus", "--policy", "'bogus'", true},
        {"simulate --hours 10 --policy bogus", "--policy", "cautious", true},
        {"simulate --hours 10 --odd mars", "--odd", "'mars'", true},
        {"simulate --hours 10 --odd mars", "--odd", "urban", true},
        // campaign: fleets bounds kill both wraparound and OOM typos
        {"campaign --fleets -1 --hours 10", "--fleets", "'-1'", true},
        {"campaign --fleets 0 --hours 10", "--fleets", "[1, 100000]", true},
        {"campaign --fleets 100001 --hours 10", "--fleets", "'100001'", true},
        {"campaign --fleets 2x --hours 10", "--fleets", "'2x'", true},
        {"campaign --fleets 2 --hours nan", "--hours", "'nan'", true},
        // pipeline
        {"pipeline --hours -1", "--hours", "'-1'", true},
        {"pipeline --hours 0", "--hours", "'0'", true},
        // --jobs itself (never appended twice)
        {"simulate --hours 10 --jobs 4097", "--jobs", "'4097'", false},
        {"simulate --hours 10 --jobs -2", "--jobs", "'-2'", false},
        {"simulate --hours 10 --jobs 0", "--jobs", "'0'", false},
        {"pipeline --jobs nope", "--jobs", "'nope'", false},
        {"campaign --fleets 2 --hours 5 --jobs 2x", "--jobs", "'2x'", false},
        // a value flag given as the last token has no value: never a
        // silent fallback to memory, the default jobs or two workers
        {"campaign --fleets 2 --hours 5 --store", "--store", "a value", false},
        {"campaign --fleets 2 --hours 5 --jobs", "--jobs", "a value", false},
        {"campaign --fleets 2 --hours 5 --store qrn-cli-never-created "
         "--distributed --workers",
         "--workers", "a value", false},
    };
    for (const auto& bad : matrix) {
        if (bad.accepts_jobs) {
            expect_one_line_parse_error(std::string(bad.args) + " --jobs 1", bad);
            expect_one_line_parse_error(std::string(bad.args) + " --jobs 2", bad);
        } else {
            expect_one_line_parse_error(bad.args, bad);
        }
    }
}

TEST(Cli, MalformedEvidenceJsonMatrix) {
    const std::string norm_path = temp_path("bad_norm.json");
    const std::string types_path = temp_path("bad_types.json");
    const std::string evidence_path = temp_path("bad_evidence.json");
    write_file(norm_path, run_cli("norm-example").output);
    write_file(types_path, run_cli("types-example").output);
    const std::string verify_args = "verify --norm " + norm_path + " --types " +
                                    types_path + " --evidence " + evidence_path;

    struct BadJsonCase {
        const char* content;
        const char* stderr_substring;
    };
    const std::vector<BadJsonCase> matrix = {
        // Raw JSON syntax errors name the file and byte offset.
        {"{oops", "json parse error"},
        {"", "json parse error"},
        // Structural errors name the JSON path.
        {"[]", "qrn.evidence"},
        {R"({"kind":"other"})", "qrn.evidence"},
        {R"({"kind":"qrn.evidence","events":[]})", "exposure_hours"},
        {R"({"kind":"qrn.evidence","exposure_hours":"ten","events":[]})",
         "exposure_hours"},
        {R"({"kind":"qrn.evidence","exposure_hours":0,"events":[]})",
         "exposure_hours"},
        {R"({"kind":"qrn.evidence","exposure_hours":-5,"events":[]})",
         "exposure_hours"},
        {R"({"kind":"qrn.evidence","exposure_hours":10})", "events"},
        {R"({"kind":"qrn.evidence","exposure_hours":10,"events":{}})", "events"},
        {R"({"kind":"qrn.evidence","exposure_hours":10,
             "events":[{"incident_type":7,"events":1}]})",
         "events[0].incident_type"},
        {R"({"kind":"qrn.evidence","exposure_hours":10,
             "events":[{"incident_type":"I1"}]})",
         "events[0].events"},
        {R"({"kind":"qrn.evidence","exposure_hours":10,
             "events":[{"incident_type":"I1","events":-2}]})",
         "events[0].events"},
        {R"({"kind":"qrn.evidence","exposure_hours":10,
             "events":[{"incident_type":"I1","events":1.5}]})",
         "events[0].events"},
        {R"({"kind":"qrn.evidence","exposure_hours":10,
             "events":[{"incident_type":"I1","events":0},
                       {"incident_type":"I2","events":1e300}]})",
         "events[1].events"},
    };
    for (const auto& bad : matrix) {
        write_file(evidence_path, bad.content);
        const auto result = run_cli_stderr(verify_args);
        EXPECT_EQ(result.exit_code, 1) << bad.content;
        EXPECT_NE(result.output.find(bad.stderr_substring), std::string::npos)
            << bad.content << " stderr: " << result.output;
        // Every evidence diagnostic names the offending file.
        EXPECT_NE(result.output.find(evidence_path), std::string::npos)
            << bad.content << " stderr: " << result.output;
    }

    std::remove(norm_path.c_str());
    std::remove(types_path.c_str());
    std::remove(evidence_path.c_str());
}

TEST(Cli, MalformedNormAndTypesNameTheFile) {
    const std::string norm_path = temp_path("broken_norm.json");
    write_file(norm_path, R"({"kind":"not-a-norm"})");
    const auto result =
        run_cli_stderr("allocate --norm " + norm_path + " --types whatever");
    EXPECT_EQ(result.exit_code, 1);
    EXPECT_NE(result.output.find(norm_path), std::string::npos) << result.output;
    std::remove(norm_path.c_str());
}

TEST(Cli, CampaignOutputIndependentOfJobs) {
    // The determinism contract at the CLI boundary: the evidence document
    // is byte-identical whether the campaign runs serially or on threads,
    // at every jobs value (2 and 8 straddle the chunk-oversubscription
    // policies of exec::chunk_ranges).
    const auto serial = run_cli("campaign --fleets 4 --hours 15 --seed 9 --jobs 1");
    ASSERT_EQ(serial.exit_code, 0);
    for (const char* jobs : {"2", "3", "8"}) {
        const auto parallel = run_cli(
            std::string("campaign --fleets 4 --hours 15 --seed 9 --jobs ") + jobs);
        ASSERT_EQ(parallel.exit_code, 0);
        EXPECT_EQ(serial.output, parallel.output) << "jobs=" << jobs;
    }
}

TEST(Cli, CampaignStdoutMatchesPinnedDocument) {
    // Pinned against a literal, not against another path of this build:
    // a change that moves every path at once (as a layout change could)
    // still shows up here.
    const auto result = run_cli("campaign --fleets 3 --hours 50 --seed 7");
    ASSERT_EQ(result.exit_code, 0);
    EXPECT_EQ(result.output, R"({
  "kind": "qrn.evidence",
  "exposure_hours": 150,
  "events": [
    {
      "incident_type": "I1",
      "events": 3
    },
    {
      "incident_type": "I2",
      "events": 0
    },
    {
      "incident_type": "I3",
      "events": 2
    }
  ]
}
)");
}

TEST(Cli, SimulateOutputIndependentOfJobs) {
    const auto serial = run_cli("simulate --hours 40 --seed 5 --jobs 1");
    ASSERT_EQ(serial.exit_code, 0);
    const auto parallel = run_cli("simulate --hours 40 --seed 5 --jobs 4");
    ASSERT_EQ(parallel.exit_code, 0);
    EXPECT_EQ(serial.output, parallel.output);
}

TEST(Cli, CampaignPoolsEvidence) {
    const auto result = run_cli("campaign --fleets 3 --hours 20 --seed 4");
    ASSERT_EQ(result.exit_code, 0);
    const auto doc = qrn::json::parse(result.output);
    EXPECT_EQ(doc.at("kind").as_string(), "qrn.evidence");
    EXPECT_DOUBLE_EQ(doc.at("exposure_hours").as_number(), 60.0);
    EXPECT_EQ(run_cli("campaign --fleets 3").exit_code, 1);  // --hours missing
}

TEST(Cli, PipelineRunsEndToEnd) {
    const auto result = run_cli("pipeline --hours 2000");
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("Safety case"), std::string::npos);
    EXPECT_NE(result.output.find("SG-I2"), std::string::npos);
}

std::string read_file(const std::string& path) {
    std::ifstream f(path);
    EXPECT_TRUE(f.is_open()) << path;
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

std::vector<std::string> names_of(const qrn::json::Value& doc, const char* key) {
    std::vector<std::string> out;
    for (const auto& item : doc.at(key).as_array()) {
        out.push_back(item.at("name").as_string());
    }
    return out;
}

bool contains(const std::vector<std::string>& names, const std::string& want) {
    return std::find(names.begin(), names.end(), want) != names.end();
}

TEST(Cli, MetricsManifestWrittenAndValid) {
    const std::string metrics_path = temp_path("metrics.json");
    const auto result = run_cli("simulate --hours 20 --seed 5 --jobs 2 --metrics " +
                                metrics_path);
    ASSERT_EQ(result.exit_code, 0);
    // stdout is still the evidence document; the manifest goes to the file
    // and the human summary to stderr.
    EXPECT_EQ(qrn::json::parse(result.output).at("kind").as_string(),
              "qrn.evidence");

    const auto doc = qrn::json::parse(read_file(metrics_path));
    EXPECT_EQ(doc.at("kind").as_string(), "qrn.metrics");
    EXPECT_EQ(doc.at("schema_version").as_number(), 1.0);
    EXPECT_EQ(doc.at("command").as_string(), "simulate");
    EXPECT_EQ(doc.at("jobs").as_number(), 2.0);
    EXPECT_EQ(doc.at("seed").as_number(), 5.0);
    EXPECT_GT(doc.at("wall_ns").as_number(), 0.0);

    EXPECT_TRUE(contains(names_of(doc, "phases"), "fleet_sim"));
    EXPECT_TRUE(contains(names_of(doc, "phases"), "incident_labelling"));
    EXPECT_TRUE(contains(names_of(doc, "counters"), "sim.encounters"));
    EXPECT_TRUE(contains(names_of(doc, "counters"), "exec.chunks_executed"));
    EXPECT_TRUE(contains(names_of(doc, "timers"), "exec.chunk_ns"));
    std::remove(metrics_path.c_str());
}

TEST(Cli, MetricsStructureIndependentOfJobs) {
    // Acceptance criterion: the manifest's structure (phase/counter/timer
    // names and order) is identical for every --jobs value; simulation
    // counters (schedule-independent sums) match exactly.
    const std::string serial_path = temp_path("metrics_j1.json");
    const std::string parallel_path = temp_path("metrics_j3.json");
    ASSERT_EQ(run_cli("campaign --fleets 3 --hours 10 --seed 9 --jobs 1 --metrics " +
                      serial_path)
                  .exit_code,
              0);
    ASSERT_EQ(run_cli("campaign --fleets 3 --hours 10 --seed 9 --jobs 3 --metrics " +
                      parallel_path)
                  .exit_code,
              0);
    const auto serial = qrn::json::parse(read_file(serial_path));
    const auto parallel = qrn::json::parse(read_file(parallel_path));

    for (const char* section : {"phases", "counters", "timers"}) {
        EXPECT_EQ(names_of(serial, section), names_of(parallel, section)) << section;
    }
    // sim.* counters aggregate schedule-independent quantities, so their
    // values (not just names) must agree across worker counts.
    const auto& serial_counters = serial.at("counters").as_array();
    const auto& parallel_counters = parallel.at("counters").as_array();
    ASSERT_EQ(serial_counters.size(), parallel_counters.size());
    for (std::size_t i = 0; i < serial_counters.size(); ++i) {
        const std::string name = serial_counters[i].at("name").as_string();
        if (name.rfind("sim.", 0) != 0) continue;
        EXPECT_EQ(serial_counters[i].at("value").as_number(),
                  parallel_counters[i].at("value").as_number())
            << name;
    }
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());
}

TEST(Cli, CampaignSplittingEmitsDocument) {
    const auto result = run_cli(
        "campaign --splitting 40,120,210 --splitting-trials 100 --seed 7");
    ASSERT_EQ(result.exit_code, 0);
    const auto doc = qrn::json::parse(result.output);
    EXPECT_EQ(doc.at("kind").as_string(), "qrn.splitting");
    EXPECT_DOUBLE_EQ(doc.at("confidence").as_number(), 0.95);
    EXPECT_DOUBLE_EQ(doc.at("hours_per_trial").as_number(), 1.0);
    const auto& levels = doc.at("levels").as_array();
    ASSERT_EQ(levels.size(), 3u);
    EXPECT_DOUBLE_EQ(levels[0].at("threshold").as_number(), 40.0);
    EXPECT_DOUBLE_EQ(levels[0].at("trials").as_number(), 100.0);
    const auto& tail = doc.at("tail_probability");
    EXPECT_LE(tail.at("lower").as_number(), tail.at("point").as_number());
    EXPECT_LE(tail.at("point").as_number(), tail.at("upper").as_number());
    // hours_per_trial is 1, so the rate interval equals the tail interval.
    EXPECT_DOUBLE_EQ(doc.at("rate_per_hour").at("upper").as_number(),
                     tail.at("upper").as_number());
}

TEST(Cli, CampaignSplittingOutputIndependentOfJobs) {
    // Same contract as the fleet campaign: the clone-and-prune ladder's
    // stdout document is byte-identical at every worker count.
    const auto serial = run_cli(
        "campaign --splitting 40,120,210 --splitting-trials 150 --seed 9 --jobs 1");
    ASSERT_EQ(serial.exit_code, 0);
    for (const char* jobs : {"2", "3", "8"}) {
        const auto parallel = run_cli(
            std::string("campaign --splitting 40,120,210 --splitting-trials 150 "
                        "--seed 9 --jobs ") +
            jobs);
        ASSERT_EQ(parallel.exit_code, 0);
        EXPECT_EQ(serial.output, parallel.output) << "jobs=" << jobs;
    }
}

TEST(Cli, CampaignSplittingArgvValidation) {
    // Non-increasing, non-positive, or empty ladders fail the grammar.
    EXPECT_EQ(run_cli("campaign --splitting 40,30").exit_code, 1);
    EXPECT_EQ(run_cli("campaign --splitting 0,10").exit_code, 1);
    EXPECT_EQ(run_cli("campaign --splitting \"\"").exit_code, 1);
    EXPECT_EQ(run_cli("campaign --splitting 10,20,").exit_code, 1);
    EXPECT_EQ(
        run_cli("campaign --splitting 10,20 --splitting-trials 0").exit_code, 1);
    EXPECT_EQ(
        run_cli("campaign --splitting 10,20 --splitting-trials 1x").exit_code, 1);
    // Splitting replaces the fleet exposure plan and bypasses the shard
    // cache: combining the modes is a usage error, not a silent choice.
    EXPECT_EQ(run_cli("campaign --splitting 10,20 --fleets 2").exit_code, 1);
    EXPECT_EQ(run_cli("campaign --splitting 10,20 --hours 5").exit_code, 1);
    EXPECT_EQ(run_cli("campaign --splitting 10,20 --store /tmp/x").exit_code, 1);
    EXPECT_EQ(run_cli("campaign --splitting 10,20 --resume").exit_code, 1);
}

TEST(Cli, CampaignSplittingMetricsCarrySplittingCounters) {
    const std::string metrics_path = temp_path("metrics_splitting.json");
    const auto result = run_cli(
        "campaign --splitting 40,120 --splitting-trials 200 --seed 3 --metrics " +
        metrics_path);
    ASSERT_EQ(result.exit_code, 0);
    const auto doc = qrn::json::parse(read_file(metrics_path));
    EXPECT_EQ(doc.at("command").as_string(), "campaign");
    EXPECT_TRUE(contains(names_of(doc, "phases"), "splitting_campaign"));
    EXPECT_TRUE(contains(names_of(doc, "counters"), "splitting.campaigns"));
    EXPECT_TRUE(contains(names_of(doc, "counters"), "splitting.trials"));
    EXPECT_TRUE(contains(names_of(doc, "counters"), "splitting.survivors"));
    EXPECT_TRUE(contains(names_of(doc, "timers"), "splitting.stage_ns"));
    for (const auto& counter : doc.at("counters").as_array()) {
        if (counter.at("name").as_string() != "splitting.trials") continue;
        // 2 levels x 200 trials (stage 0 survives at this seed, so no
        // extinction break truncates the ladder).
        EXPECT_DOUBLE_EQ(counter.at("value").as_number(), 400.0);
    }
    std::remove(metrics_path.c_str());
}

TEST(Cli, MetricsUnwritablePathIsIoError) {
    const auto result = run_cli_stderr(
        "simulate --hours 5 --seed 1 --metrics /nonexistent-qrn-dir/m.json");
    EXPECT_EQ(result.exit_code, 3);
    EXPECT_NE(result.output.find("/nonexistent-qrn-dir/m.json"), std::string::npos)
        << result.output;
}

TEST(Cli, MetricsEmptyValueIsParseError) {
    EXPECT_EQ(run_cli("simulate --hours 5 --metrics \"\"").exit_code, 1);
}

TEST(Cli, MetricsNotWrittenOnUsageError) {
    // A usage error (exit 1) never ran the workload, so no manifest may
    // appear - half-measured evidence would be misleading.
    const std::string metrics_path = temp_path("metrics_unused.json");
    std::remove(metrics_path.c_str());
    EXPECT_EQ(run_cli("simulate --metrics " + metrics_path).exit_code, 1);
    std::ifstream f(metrics_path);
    EXPECT_FALSE(f.is_open());
}

TEST(Cli, VersionPrintsProvenance) {
    const auto result = run_cli("--version");
    ASSERT_EQ(result.exit_code, 0);
    EXPECT_EQ(result.output.rfind("qrn ", 0), 0u) << result.output;
    EXPECT_GT(result.output.size(), 5u) << "version line carries no provenance";
    EXPECT_EQ(run_cli("version").exit_code, 0);
}

std::string store_dir(const std::string& name) {
    const std::string dir = ::testing::TempDir() + "qrn_cli_store_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

/// First sealed shard file in a store directory.
std::string first_shard_in(const std::string& dir) {
    std::vector<std::string> shards;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".qrs") shards.push_back(entry.path());
    }
    EXPECT_FALSE(shards.empty()) << dir;
    std::sort(shards.begin(), shards.end());
    return shards.front();
}

TEST(Cli, CampaignStoreMatchesInMemoryByteForByte) {
    // The resume-determinism pin at the CLI boundary: with or without the
    // cache, cold or warm, serial or parallel - one byte stream.
    const std::string dir = store_dir("determinism");
    const std::string args = "campaign --fleets 3 --hours 10 --seed 9";
    const auto memory = run_cli(args);
    ASSERT_EQ(memory.exit_code, 0);
    const auto cold = run_cli(args + " --store " + dir);
    ASSERT_EQ(cold.exit_code, 0);
    const auto warm = run_cli(args + " --store " + dir);
    ASSERT_EQ(warm.exit_code, 0);
    const auto warm_parallel = run_cli(args + " --store " + dir + " --jobs 3");
    ASSERT_EQ(warm_parallel.exit_code, 0);
    EXPECT_EQ(cold.output, memory.output);
    EXPECT_EQ(warm.output, memory.output);
    EXPECT_EQ(warm_parallel.output, memory.output);

    // The stderr summary reports what the cache did.
    const auto warm_stderr = run_cli_stderr(args + " --store " + dir);
    EXPECT_EQ(warm_stderr.exit_code, 0);
    EXPECT_NE(warm_stderr.output.find("3 shard(s) reused, 0 simulated"),
              std::string::npos)
        << warm_stderr.output;
    std::filesystem::remove_all(dir);
}

TEST(Cli, CampaignResumeFlagContract) {
    const std::string dir = store_dir("resume");
    // --resume without --store is a usage error (exit 1)...
    EXPECT_EQ(run_cli("campaign --fleets 2 --hours 5 --resume").exit_code, 1);
    // ... and --resume against a store with no manifest is an I/O error
    // (exit 3): there is nothing to resume from. A refused path is left
    // as it was found: no directory is created, at any depth...
    const std::string typo = store_dir("resume_typo");
    for (const std::string& missing : {dir, typo + "/deep"}) {
        const auto fresh = run_cli_stderr("campaign --fleets 2 --hours 5 --store " +
                                          missing + " --resume");
        EXPECT_EQ(fresh.exit_code, 3) << missing;
        EXPECT_NE(fresh.output.find("cannot --resume"), std::string::npos)
            << fresh.output;
        EXPECT_FALSE(std::filesystem::exists(missing)) << missing;
    }
    EXPECT_FALSE(std::filesystem::exists(typo)) << typo;
    // ... and an existing empty directory stays empty.
    std::filesystem::create_directories(dir);
    const auto empty = run_cli_stderr("campaign --fleets 2 --hours 5 --store " + dir +
                                      " --resume");
    EXPECT_EQ(empty.exit_code, 3);
    EXPECT_NE(empty.output.find("cannot --resume"), std::string::npos) << empty.output;
    EXPECT_TRUE(std::filesystem::is_empty(dir)) << dir;

    // After any run with --store, --resume succeeds and stays byte-stable.
    const auto cold = run_cli("campaign --fleets 2 --hours 5 --store " + dir);
    ASSERT_EQ(cold.exit_code, 0);
    const auto resumed =
        run_cli("campaign --fleets 2 --hours 5 --store " + dir + " --resume");
    EXPECT_EQ(resumed.exit_code, 0);
    EXPECT_EQ(resumed.output, cold.output);
    std::filesystem::remove_all(dir);
}

/// The stderr lines every campaign path prints from its aggregate.
std::string summary_lines(const std::string& err) {
    std::string out;
    std::size_t at = 0;
    while (at < err.size()) {
        const std::size_t eol = std::min(err.find('\n', at), err.size());
        const std::string line = err.substr(at, eol - at);
        if (line.rfind("fleets: ", 0) == 0 || line.rfind("fleet homogeneity: ", 0) == 0) {
            out += line + '\n';
        }
        at = eol + 1;
    }
    return out;
}

TEST(Cli, CampaignSummaryIdenticalOnEveryPath) {
    // One fold behind every path: in memory, cold and warm --store, and
    // --distributed print the same summary, digit for digit.
    const std::string local = store_dir("summary_local");
    const std::string dist = store_dir("summary_dist");
    const std::string args = "campaign --fleets 4 --hours 40 --seed 5";
    const auto memory = run_cli_stderr(args);
    ASSERT_EQ(memory.exit_code, 0);
    const std::string expected = summary_lines(memory.output);
    ASSERT_NE(expected.find("fleet homogeneity: "), std::string::npos) << memory.output;
    for (const std::string& variant :
         {" --store " + local, " --store " + local,
          " --store " + dist + " --distributed --workers 2"}) {
        const auto run = run_cli_stderr(args + variant);
        ASSERT_EQ(run.exit_code, 0) << variant << ": " << run.output;
        EXPECT_EQ(summary_lines(run.output), expected) << variant;
    }
    std::filesystem::remove_all(local);
    std::filesystem::remove_all(dist);
}

TEST(Cli, DistributedCampaignReadsEachRecordTwice) {
    // Two read passes over every shard: the coordinator verifies each one
    // before recording it, then the aggregate streams it. Nothing re-enters
    // the local --store path for a third.
    const std::string dir = store_dir("read_passes");
    const std::string metrics_path = temp_path("metrics_read_passes.json");
    ASSERT_EQ(run_cli("campaign --fleets 6 --hours 200 --seed 3 --store " + dir +
                      " --distributed --workers 2 --metrics " + metrics_path)
                  .exit_code,
              0);
    // The store's record count, from its shards' footers.
    const auto inspect = run_cli("store inspect --store " + dir);
    ASSERT_EQ(inspect.exit_code, 0);
    const std::size_t at = inspect.output.find(", records: ");
    ASSERT_NE(at, std::string::npos) << inspect.output;
    const std::size_t end = inspect.output.find(',', at + 11);
    const double records =
        qrn::json::parse(inspect.output.substr(at + 11, end - at - 11)).as_number();
    ASSERT_GT(records, 0.0) << "campaign too quiet to count read passes";
    double records_read = -1.0;
    const auto metrics = qrn::json::parse(read_file(metrics_path));
    for (const auto& counter : metrics.at("counters").as_array()) {
        if (counter.at("name").as_string() == "store.records_read") {
            records_read = counter.at("value").as_number();
        }
    }
    EXPECT_EQ(records_read, 2.0 * records);
    std::remove(metrics_path.c_str());
    std::filesystem::remove_all(dir);
}

TEST(Cli, DistributedMetricsTimeCompileThenDispatchThenLabelling) {
    // Plan, DAG and budget check run inside the sched_compile phase, so a
    // --metrics manifest accounts for the time before the first dispatch.
    // Metrics go to the manifest only: stdout stays the evidence document.
    const std::string dir = store_dir("compile_phase");
    const std::string plain_dir = store_dir("compile_phase_plain");
    const std::string metrics_path = temp_path("metrics_compile_phase.json");
    const std::string args = "campaign --fleets 3 --hours 20 --seed 4 --distributed";
    const auto with_metrics =
        run_cli(args + " --store " + dir + " --metrics " + metrics_path);
    ASSERT_EQ(with_metrics.exit_code, 0);
    const auto plain = run_cli(args + " --store " + plain_dir);
    ASSERT_EQ(plain.exit_code, 0);
    EXPECT_EQ(with_metrics.output, plain.output);

    const auto doc = qrn::json::parse(read_file(metrics_path));
    const std::vector<std::string> want{"sched_compile", "sched_dispatch",
                                        "incident_labelling"};
    EXPECT_EQ(names_of(doc, "phases"), want);
    std::remove(metrics_path.c_str());
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(plain_dir);
}

TEST(Cli, StoreInspectVerifyMergeFlow) {
    const std::string dir = store_dir("inspect");
    ASSERT_EQ(run_cli("campaign --fleets 3 --hours 10 --seed 9 --store " + dir)
                  .exit_code,
              0);

    const auto inspect = run_cli("store inspect --store " + dir);
    ASSERT_EQ(inspect.exit_code, 0);
    EXPECT_NE(inspect.output.find("git describe: "), std::string::npos)
        << inspect.output;
    EXPECT_NE(inspect.output.find("shards: 3"), std::string::npos) << inspect.output;
    EXPECT_NE(inspect.output.find("fleet 0"), std::string::npos) << inspect.output;

    const auto verify = run_cli("store verify --store " + dir);
    EXPECT_EQ(verify.exit_code, 0);
    EXPECT_NE(verify.output.find("verified 3/3 shard(s)"), std::string::npos)
        << verify.output;

    const std::string merged_path = temp_path("merged.qrs");
    const auto merge =
        run_cli("store merge --store " + dir + " --out " + merged_path);
    EXPECT_EQ(merge.exit_code, 0);
    EXPECT_NE(merge.output.find("merged 3 shard(s)"), std::string::npos)
        << merge.output;
    EXPECT_TRUE(std::filesystem::exists(merged_path));

    std::remove(merged_path.c_str());
    std::filesystem::remove_all(dir);
}

TEST(Cli, StoreVerifyDetectsCorruptionAndCampaignHeals) {
    const std::string dir = store_dir("corruption");
    const std::string args = "campaign --fleets 3 --hours 10 --seed 9 --store " + dir;
    const auto cold = run_cli(args);
    ASSERT_EQ(cold.exit_code, 0);

    // Bit-flip the middle of one sealed shard.
    const std::string victim = first_shard_in(dir);
    std::string bytes = read_file(victim);
    ASSERT_GT(bytes.size(), 60u);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x20);
    write_file(victim, bytes);

    // Corruption is the documented exit 2, and the diagnostic names the file.
    const auto verify = run_cli_stderr("store verify --store " + dir);
    EXPECT_EQ(verify.exit_code, 2);
    EXPECT_NE(verify.output.find(std::filesystem::path(victim).filename().string()),
              std::string::npos)
        << verify.output;
    // inspect reads every footer, so it cannot list the damaged shard either.
    EXPECT_EQ(run_cli("store inspect --store " + dir).exit_code, 2);

    // A campaign against the damaged store re-simulates, never trusts...
    const auto healed = run_cli_stderr(args);
    EXPECT_EQ(healed.exit_code, 0);
    EXPECT_NE(healed.output.find("1 invalid"), std::string::npos) << healed.output;
    // ... and the evidence is byte-identical to the uncorrupted run.
    EXPECT_EQ(run_cli(args).output, cold.output);
    EXPECT_EQ(run_cli("store verify --store " + dir).exit_code, 0);
    std::filesystem::remove_all(dir);
}

TEST(Cli, StoreUsageErrors) {
    EXPECT_EQ(run_cli("store").exit_code, 1);
    EXPECT_EQ(run_cli("store bogus --store somewhere").exit_code, 1);
    EXPECT_EQ(run_cli("store inspect").exit_code, 1);       // --store missing
    EXPECT_EQ(run_cli("store verify").exit_code, 1);        // --store missing
    EXPECT_EQ(run_cli("store merge --store x").exit_code, 1);  // --out missing
    EXPECT_EQ(run_cli("campaign --fleets 2 --hours 5 --store \"\"").exit_code, 1);
    // Reading a store that was never created is an I/O error, and the
    // read-only commands create nothing on the way.
    const std::string missing = store_dir("never_created") + "/nested";
    const std::string merged = temp_path("never_merged.qrs");
    EXPECT_EQ(run_cli("store inspect --store " + missing).exit_code, 3);
    EXPECT_EQ(run_cli("store verify --store " + missing).exit_code, 3);
    EXPECT_EQ(run_cli("store merge --store " + missing + " --out " + merged).exit_code, 3);
    EXPECT_FALSE(std::filesystem::exists(missing));
    EXPECT_FALSE(std::filesystem::exists(std::filesystem::path(missing).parent_path()));
    EXPECT_FALSE(std::filesystem::exists(merged));
}

TEST(Cli, StoreVerifyNamesAShardCopiedOverAnotherFleet) {
    // Every checksum of the copy passes; only its header says it holds
    // fleet 1, not the fleet and key its file name promises.
    const std::string dir = store_dir("copied_shard");
    ASSERT_EQ(run_cli("campaign --fleets 3 --hours 10 --seed 9 --store " + dir).exit_code,
              0);
    std::vector<std::string> shards;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".qrs") shards.push_back(entry.path());
    }
    std::sort(shards.begin(), shards.end());
    ASSERT_EQ(shards.size(), 3u);
    std::filesystem::copy_file(shards[1], shards[2],
                               std::filesystem::copy_options::overwrite_existing);

    const auto verify = run_cli_stderr("store verify --store " + dir);
    EXPECT_EQ(verify.exit_code, 2);
    EXPECT_NE(verify.output.find(std::filesystem::path(shards[2]).filename().string()),
              std::string::npos)
        << verify.output;
    EXPECT_EQ(verify.output.find(std::filesystem::path(shards[1]).filename().string()),
              std::string::npos)
        << verify.output;
    std::filesystem::remove_all(dir);
}

TEST(Cli, ParentBuiltStoreOpensWarmAndVerifies) {
    // Builds before the listing kept a row per shard in manifest.json. Such
    // a store opens unchanged: its rows are never read, never rewritten.
    const std::string dir = store_dir("parent_format");
    const std::string args = "campaign --fleets 3 --hours 10 --seed 9 --store " + dir;
    const auto cold = run_cli(args);
    ASSERT_EQ(cold.exit_code, 0);
    std::vector<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() == ".qrs") names.push_back(entry.path().filename());
    }
    std::sort(names.begin(), names.end());  // fleet-00000-..., fleet-00001-..., ...
    qrn::json::Array rows;
    for (std::size_t fleet = 0; fleet < names.size(); ++fleet) {
        const std::string& name = names[fleet];
        qrn::json::Object row;
        row.emplace_back("fleet_index", fleet);
        row.emplace_back("file", name);
        row.emplace_back("key", name.substr(12, 16));
        row.emplace_back("records", static_cast<std::size_t>(2));
        row.emplace_back("exposure_hours", 10.0);
        rows.emplace_back(std::move(row));
    }
    ASSERT_EQ(rows.size(), 3u);
    qrn::json::Object doc;
    doc.emplace_back("kind", std::string("qrn.store"));
    doc.emplace_back("schema_version", 1);
    doc.emplace_back("shards", std::move(rows));
    const std::string manifest = qrn::json::Value(std::move(doc)).dump(2) + "\n";
    write_file(dir + "/manifest.json", manifest);

    const auto warm = run_cli_stderr(args + " --resume");
    EXPECT_EQ(warm.exit_code, 0);
    EXPECT_NE(warm.output.find("3 shard(s) reused, 0 simulated"), std::string::npos)
        << warm.output;
    EXPECT_EQ(run_cli(args).output, cold.output);
    const auto verify = run_cli("store verify --store " + dir);
    EXPECT_EQ(verify.exit_code, 0);
    EXPECT_NE(verify.output.find("verified 3/3 shard(s)"), std::string::npos)
        << verify.output;
    EXPECT_EQ(read_file(dir + "/manifest.json"), manifest);
    std::filesystem::remove_all(dir);
}

TEST(Cli, PipelineMarkdownVariant) {
    const auto result = run_cli("pipeline --hours 2000 --markdown");
    EXPECT_EQ(result.exit_code, 0);
    EXPECT_NE(result.output.find("# QRN safety case"), std::string::npos);
    EXPECT_NE(result.output.find("- [x]"), std::string::npos);
}

}  // namespace
