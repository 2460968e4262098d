// End-to-end tests of the qrn-lint binary: exit-code contract (0 clean,
// 1 usage, 2 findings), the file:line:rule diagnostic format, and
// --list-rules. This is the executable form of the acceptance criterion
// "seeding a violation makes it exit 2 with a file:line: rule-id line".
#include <array>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

namespace {

#ifndef QRN_LINT_PATH
#error "QRN_LINT_PATH must be defined by the build"
#endif

struct CommandResult {
    int exit_code = -1;
    std::string output;  // stdout + stderr
};

CommandResult run_lint(const std::string& arguments) {
    const std::string command =
        std::string(QRN_LINT_PATH) + " " + arguments + " 2>&1";
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("popen failed");
    CommandResult result;
    std::array<char, 4096> buffer{};
    std::size_t n = 0;
    // qrn-lint: allow(raw-file-io) draining a popen pipe of the spawned linter, not a shard
    while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
        result.output.append(buffer.data(), n);
    }
    const int status = pclose(pipe);
    result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    return result;
}

std::string temp_file(const std::string& name, const std::string& content) {
    const std::string path = ::testing::TempDir() + "qrn_lint_" + name;
    std::ofstream f(path);
    EXPECT_TRUE(f.is_open());
    f << content;
    return path;
}

TEST(LintCli, CleanFileExitsZero) {
    const auto path = temp_file("clean.cpp", "int add(int a, int b) { return a + b; }\n");
    const auto result = run_lint(path);
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_EQ(result.output, "");
}

TEST(LintCli, SeededViolationExitsTwoWithDiagnostic) {
    const auto path = temp_file("seeded.cpp",
                                "#include <string>\n"
                                "double f(const std::string& s) {\n"
                                "  return std::stod(s);\n"
                                "}\n");
    const auto result = run_lint(path);
    EXPECT_EQ(result.exit_code, 2);
    // file:line: rule-id: message
    EXPECT_NE(result.output.find("seeded.cpp:3: raw-parse:"), std::string::npos)
        << result.output;
}

TEST(LintCli, SuppressedViolationExitsZero) {
    const auto path = temp_file(
        "suppressed.cpp",
        "double f(const char* s) {\n"
        "  return atof(s);  // qrn-lint: allow(raw-parse) exercising the waiver\n"
        "}\n");
    const auto result = run_lint(path);
    EXPECT_EQ(result.exit_code, 0) << result.output;
}

TEST(LintCli, ReasonlessSuppressionExitsTwo) {
    const auto path = temp_file("reasonless.cpp",
                                "double f(const char* s) {\n"
                                "  return atof(s);  // qrn-lint: allow(raw-parse)\n"
                                "}\n");
    const auto result = run_lint(path);
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("suppression-hygiene"), std::string::npos)
        << result.output;
}

TEST(LintCli, UsageErrorsExitOne) {
    EXPECT_EQ(run_lint("").exit_code, 1);
    EXPECT_EQ(run_lint("--bogus-flag .").exit_code, 1);
    EXPECT_EQ(run_lint("/no/such/path").exit_code, 1);
    EXPECT_EQ(run_lint("--format=sarif .").exit_code, 1);
}

TEST(LintCli, GhFormatEmitsErrorAnnotations) {
    const auto path = temp_file("gh_format.cpp",
                                "#include <string>\n"
                                "double f(const std::string& s) {\n"
                                "  return std::stod(s);\n"
                                "}\n");
    const auto result = run_lint("--format=gh " + path);
    EXPECT_EQ(result.exit_code, 2);
    // ::error file=<path>,line=<line>::<rule>: <message>
    EXPECT_NE(result.output.find("::error file="), std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("gh_format.cpp,line=3::raw-parse:"),
              std::string::npos)
        << result.output;
    // The stderr summary is format-independent.
    EXPECT_NE(result.output.find("1 finding"), std::string::npos)
        << result.output;
}

TEST(LintCli, TextFormatIsTheExplicitDefault) {
    const auto path = temp_file("text_format.cpp",
                                "#include <string>\n"
                                "double f(const std::string& s) {\n"
                                "  return std::stod(s);\n"
                                "}\n");
    const auto result = run_lint("--format=text " + path);
    EXPECT_EQ(result.exit_code, 2);
    EXPECT_NE(result.output.find("text_format.cpp:3: raw-parse:"),
              std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("::error"), std::string::npos) << result.output;
}

TEST(LintCli, ListRulesDocumentsEveryShippedRule) {
    const auto result = run_lint("--list-rules");
    EXPECT_EQ(result.exit_code, 0);
    for (const char* id :
         {"raw-parse", "ambient-rng", "naked-new", "thread-discipline",
          "rng-stream", "using-namespace-header", "iostream-in-lib",
          "raw-file-io", "throw-message", "hotloop-alloc",
          "dispatcher-no-block", "raw-fsync", "suppression-hygiene"}) {
        EXPECT_NE(result.output.find(id), std::string::npos) << id;
    }
    // One unindented id line per rule, and nothing else: the rules the
    // compiler now enforces are gone.
    std::istringstream lines(result.output);
    std::size_t rule_count = 0;
    for (std::string line; std::getline(lines, line);) {
        if (!line.empty() && line[0] != ' ') ++rule_count;
    }
    EXPECT_EQ(rule_count, 13u);
    for (const char* retired :
         {"guarded-by", "guard-annotation", "lock-order", "unchecked-seal"}) {
        EXPECT_EQ(result.output.find(retired), std::string::npos) << retired;
    }
}

}  // namespace
