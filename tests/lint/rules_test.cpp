// Every qrn-lint project rule: what it flags, where it is scoped, and the
// suppression grammar that can waive it. Fixtures go through lint_source,
// the same entry point the CLI uses per file.
#include "lint/linter.h"

#include <algorithm>
#include <gtest/gtest.h>

#include "lint/rules.h"
#include "lint/suppression.h"

namespace qrn::lint {
namespace {

bool has_rule(const std::vector<Finding>& fs, std::string_view rule) {
    return std::any_of(fs.begin(), fs.end(),
                       [&](const Finding& f) { return f.rule == rule; });
}

int line_of(const std::vector<Finding>& fs, std::string_view rule) {
    for (const Finding& f : fs) {
        if (f.rule == rule) return f.line;
    }
    return -1;
}

// ---- raw-parse ---------------------------------------------------------

TEST(RuleRawParse, FlagsStdStodWithLine) {
    const auto fs = lint_source("src/qrn/foo.cpp", "void f(std::string s) {\n"
                                                   "  double d = std::stod(s);\n"
                                                   "}\n");
    ASSERT_TRUE(has_rule(fs, "raw-parse"));
    EXPECT_EQ(line_of(fs, "raw-parse"), 2);
}

TEST(RuleRawParse, FlagsCFamilyToo) {
    EXPECT_TRUE(has_rule(lint_source("bench/b.cpp", "int n = atoi(argv[1]);"),
                         "raw-parse"));
    EXPECT_TRUE(has_rule(lint_source("tests/t.cpp", "double d = strtod(p, &e);"),
                         "raw-parse"));
    EXPECT_TRUE(has_rule(lint_source("examples/e.cpp", "sscanf(buf, \"%d\", &n);"),
                         "raw-parse"));
}

TEST(RuleRawParse, AllowedInsideTheCheckedLayer) {
    EXPECT_FALSE(has_rule(
        lint_source("src/tools/parse.cpp", "double d = std::stod(s);"), "raw-parse"));
    EXPECT_FALSE(has_rule(
        lint_source("src/qrn/json.cpp", "double d = std::strtod(s, &e);"), "raw-parse"));
}

TEST(RuleRawParse, IgnoresStringsAndComments) {
    EXPECT_FALSE(has_rule(
        lint_source("src/a.cpp", "// std::stoull would have parsed \"-1\"\n"
                                 "auto s = \"call atoi here\";\n"),
        "raw-parse"));
}

// ---- ambient-rng -------------------------------------------------------

TEST(RuleAmbientRng, FlagsRandAndRandomDevice) {
    EXPECT_TRUE(has_rule(lint_source("src/sim/x.cpp", "int r = rand() % 6;"),
                         "ambient-rng"));
    EXPECT_TRUE(has_rule(
        lint_source("tests/x.cpp", "std::random_device rd; std::mt19937 g(rd());"),
        "ambient-rng"));
}

TEST(RuleAmbientRng, AllowedOnlyInRngCpp) {
    EXPECT_FALSE(has_rule(lint_source("src/stats/rng.cpp", "std::random_device rd;"),
                          "ambient-rng"));
}

// ---- naked-new ---------------------------------------------------------

TEST(RuleNakedNew, FlagsNewAndDeleteExpressions) {
    EXPECT_TRUE(has_rule(lint_source("src/a.cpp", "auto* p = new Widget();"),
                         "naked-new"));
    EXPECT_TRUE(has_rule(lint_source("src/a.cpp", "delete p;"), "naked-new"));
    EXPECT_TRUE(has_rule(lint_source("src/a.cpp", "delete[] p;"), "naked-new"));
}

TEST(RuleNakedNew, SkipsDeletedFunctionsAndAllocatorDecls) {
    const char* src = "struct S {\n"
                      "  S(const S&) = delete;\n"
                      "  S& operator=(const S&) = delete;\n"
                      "  void* operator new(std::size_t);\n"
                      "  void operator delete(void*);\n"
                      "};\n";
    EXPECT_FALSE(has_rule(lint_source("src/a.cpp", src), "naked-new"));
}

// ---- thread-discipline -------------------------------------------------

TEST(RuleThreadDiscipline, FlagsStdThreadOutsideExec) {
    const auto fs = lint_source("src/sim/x.cpp", "std::thread t(work);");
    EXPECT_TRUE(has_rule(fs, "thread-discipline"));
    EXPECT_TRUE(has_rule(lint_source("tests/x.cpp", "std::jthread t(work);"),
                         "thread-discipline"));
}

TEST(RuleThreadDiscipline, CoversTheObservabilityLayer) {
    // src/obs promises "no std::thread" (obs/metrics.h design rules); only
    // src/exec/, src/serve/ and src/sched/ are exempt, so the linter must
    // keep obs honest.
    EXPECT_TRUE(has_rule(lint_source("src/obs/metrics.cpp", "std::thread t(work);"),
                         "thread-discipline"));
}

TEST(RuleThreadDiscipline, AllowedInExecServeSchedAndForThisThread) {
    EXPECT_FALSE(has_rule(
        lint_source("src/exec/thread_pool.cpp", "workers_.emplace_back(std::thread(w));"),
        "thread-discipline"));
    // src/serve owns the daemon's long-lived accept/reader/dispatcher
    // threads - I/O-bound waiting the fixed exec pool cannot host.
    EXPECT_FALSE(has_rule(
        lint_source("src/serve/server.cpp", "accept_thread_ = std::thread(fn);"),
        "thread-discipline"));
    // src/sched owns the distributed coordinator's lease-renewal thread,
    // which must tick while the pool is saturated with fleet work.
    EXPECT_FALSE(has_rule(
        lint_source("src/sched/coordinator.cpp", "renewer_ = std::thread(fn);"),
        "thread-discipline"));
    EXPECT_FALSE(has_rule(
        lint_source("src/sim/x.cpp", "std::this_thread::sleep_for(d);"),
        "thread-discipline"));
}

// ---- rng-stream --------------------------------------------------------

TEST(RuleRngStream, FlagsDirectSeedingInParallelBody) {
    const char* src =
        "void f() {\n"
        "  exec::parallel_for(jobs, n, [&](const ChunkRange& c) {\n"
        "    stats::Rng rng(seed);\n"
        "    use(rng);\n"
        "  });\n"
        "}\n";
    const auto fs = lint_source("src/sim/x.cpp", src);
    ASSERT_TRUE(has_rule(fs, "rng-stream"));
    EXPECT_EQ(line_of(fs, "rng-stream"), 3);
}

TEST(RuleRngStream, FlagsTemporaryAndBraceForms) {
    EXPECT_TRUE(has_rule(
        lint_source("src/a.cpp", "parallel_map<int>(j, n, [&](std::size_t i) {"
                                 " return use(Rng(i)); });"),
        "rng-stream"));
    EXPECT_TRUE(has_rule(
        lint_source("src/a.cpp", "parallel_for(j, n, [&](const C& c) {"
                                 " Rng rng{seed}; });"),
        "rng-stream"));
}

TEST(RuleRngStream, StreamDerivationIsTheBlessedForm) {
    const char* src =
        "auto parts = exec::parallel_chunks<std::vector<double>>(\n"
        "    jobs, n, [&](const exec::ChunkRange& chunk) {\n"
        "      Rng rng = Rng::stream(seed, chunk.begin);\n"
        "      return go(rng);\n"
        "    });\n";
    EXPECT_FALSE(has_rule(lint_source("src/stats/b.cpp", src), "rng-stream"));
}

TEST(RuleRngStream, DirectSeedingOutsideParallelIsFine) {
    EXPECT_FALSE(has_rule(lint_source("src/hara/e.cpp", "stats::Rng rng(seed);"),
                          "rng-stream"));
}

// ---- using-namespace-header --------------------------------------------

TEST(RuleUsingNamespaceHeader, FlagsHeadersOnly) {
    EXPECT_TRUE(has_rule(lint_source("src/qrn/a.h", "using namespace std;"),
                         "using-namespace-header"));
    EXPECT_TRUE(has_rule(lint_source("src/qrn/a.hpp", "using namespace qrn;"),
                         "using-namespace-header"));
    EXPECT_FALSE(has_rule(lint_source("src/qrn/a.cpp", "using namespace qrn;"),
                          "using-namespace-header"));
    // "using std::vector;" is fine anywhere.
    EXPECT_FALSE(has_rule(lint_source("src/qrn/a.h", "using std::vector;"),
                          "using-namespace-header"));
}

// ---- iostream-in-lib ---------------------------------------------------

TEST(RuleIostreamInLib, FlagsLibraryCodeOnly) {
    EXPECT_TRUE(has_rule(lint_source("src/report/t.cpp", "#include <iostream>\n"),
                         "iostream-in-lib"));
    EXPECT_FALSE(has_rule(lint_source("tests/report/t.cpp", "#include <iostream>\n"),
                          "iostream-in-lib"));
    EXPECT_FALSE(has_rule(lint_source("src/report/t.cpp", "#include <ostream>\n"),
                          "iostream-in-lib"));
}

TEST(RuleIostreamInLib, CoversTheObservabilityLayer) {
    // src/obs promises "no <iostream>" (obs/metrics.h design rules);
    // serialization goes through obs/manifest.h and the report layer.
    EXPECT_TRUE(has_rule(lint_source("src/obs/manifest.cpp", "#include <iostream>\n"),
                         "iostream-in-lib"));
}

// ---- raw-file-io -------------------------------------------------------

TEST(RuleRawFileIo, FlagsCStdioAndStreamMemberCalls) {
    const auto fs = lint_source("src/sim/dump.cpp",
                                "void f(FILE* fp, char* b) {\n"
                                "  fread(b, 1, 16, fp);\n"
                                "}\n");
    ASSERT_TRUE(has_rule(fs, "raw-file-io"));
    EXPECT_EQ(line_of(fs, "raw-file-io"), 2);
    EXPECT_TRUE(has_rule(
        lint_source("src/qrn/x.cpp", "out.write(bytes.data(), bytes.size());"),
        "raw-file-io"));
    EXPECT_TRUE(has_rule(
        lint_source("tests/t.cpp", "stream->read(buf, n);"), "raw-file-io"));
    EXPECT_TRUE(has_rule(
        lint_source("src/qrn/x.cpp", "FILE* f = fopen(path, \"rb\");"),
        "raw-file-io"));
}

TEST(RuleRawFileIo, ConfinedToTheStoreAndManifestSerializer) {
    EXPECT_FALSE(has_rule(
        lint_source("src/store/shard.cpp", "out.write(block.data(), block.size());"),
        "raw-file-io"));
    EXPECT_FALSE(has_rule(
        lint_source("src/obs/manifest.cpp", "fwrite(buf, 1, n, fp);"),
        "raw-file-io"));
}

TEST(RuleRawFileIo, IgnoresOtherIdentifiersAndFreeCalls) {
    // read/write only count as the member-call form; a free function or a
    // differently named member is someone else's contract.
    EXPECT_FALSE(has_rule(lint_source("src/a.cpp", "read(fd, buf, n);"),
                          "raw-file-io"));
    EXPECT_FALSE(has_rule(
        lint_source("src/a.cpp", "reader.read_exact(buf, n, \"header\");"),
        "raw-file-io"));
    EXPECT_FALSE(has_rule(lint_source("src/a.cpp", "auto w = t.write_count;"),
                          "raw-file-io"));
}

// ---- throw-message -----------------------------------------------------

TEST(RuleThrowMessage, FlagsEmptyPreconditionThrows) {
    EXPECT_TRUE(has_rule(
        lint_source("src/a.cpp", "if (bad) throw std::invalid_argument();"),
        "throw-message"));
    EXPECT_TRUE(has_rule(
        lint_source("src/a.cpp", "if (bad) throw std::out_of_range(\"\");"),
        "throw-message"));
    EXPECT_TRUE(has_rule(lint_source("src/a.cpp", "throw std::logic_error{};"),
                         "throw-message"));
}

TEST(RuleThrowMessage, AcceptsMessagesRethrowsAndOtherTypes) {
    EXPECT_FALSE(has_rule(
        lint_source("src/a.cpp",
                    "throw std::invalid_argument(\"bootstrap: replicates >= 100\");"),
        "throw-message"));
    EXPECT_FALSE(has_rule(lint_source("src/a.cpp", "catch (...) { throw; }"),
                          "throw-message"));
    EXPECT_FALSE(has_rule(lint_source("src/a.cpp", "throw ParseError(flag, v, e);"),
                          "throw-message"));
}

// ---- hotloop-alloc -----------------------------------------------------

TEST(RuleHotloopAlloc, FlagsContainerDeclarationsInsideTheRegion) {
    const char* src =
        "void f() {\n"
        "  // qrn:hotloop(begin)\n"
        "  for (std::size_t i = 0; i < n; ++i) {\n"
        "    std::vector<double> samples;\n"
        "    use(samples);\n"
        "  }\n"
        "  // qrn:hotloop(end)\n"
        "}\n";
    const auto fs = lint_source("src/sim/x.cpp", src);
    ASSERT_TRUE(has_rule(fs, "hotloop-alloc"));
    EXPECT_EQ(line_of(fs, "hotloop-alloc"), 4);
}

TEST(RuleHotloopAlloc, FlagsStringAndSmartPointerMakers) {
    EXPECT_TRUE(has_rule(
        lint_source("src/sim/x.cpp", "// qrn:hotloop(begin)\n"
                                     "std::string label = name(i);\n"
                                     "// qrn:hotloop(end)\n"),
        "hotloop-alloc"));
    EXPECT_TRUE(has_rule(
        lint_source("src/sim/x.cpp", "// qrn:hotloop(begin)\n"
                                     "auto p = std::make_unique<Probe>(i);\n"
                                     "// qrn:hotloop(end)\n"),
        "hotloop-alloc"));
}

TEST(RuleHotloopAlloc, ViewsReferencesAndPlainStructsAreFine) {
    const char* src =
        "// qrn:hotloop(begin)\n"
        "const std::vector<double>& cols = log.columns();\n"
        "std::string_view name = labels[i];\n"
        "Incident hit;\n"
        "log.incidents.push_back(hit);\n"
        "// qrn:hotloop(end)\n";
    EXPECT_FALSE(has_rule(lint_source("src/sim/x.cpp", src), "hotloop-alloc"));
}

TEST(RuleHotloopAlloc, CodeOutsideRegionsIsNotTheRulesBusiness) {
    EXPECT_FALSE(has_rule(
        lint_source("src/sim/x.cpp", "std::vector<double> samples;\n"),
        "hotloop-alloc"));
    EXPECT_FALSE(has_rule(
        lint_source("src/sim/x.cpp", "// qrn:hotloop(begin)\n"
                                     "work(i);\n"
                                     "// qrn:hotloop(end)\n"
                                     "std::vector<double> after;\n"),
        "hotloop-alloc"));
}

TEST(RuleHotloopAlloc, UnbalancedMarkersAreFindings) {
    EXPECT_TRUE(has_rule(
        lint_source("src/sim/x.cpp", "// qrn:hotloop(begin)\nwork();\n"),
        "hotloop-alloc"));
    EXPECT_TRUE(has_rule(
        lint_source("src/sim/x.cpp", "work();\n// qrn:hotloop(end)\n"),
        "hotloop-alloc"));
    EXPECT_TRUE(has_rule(
        lint_source("src/sim/x.cpp", "// qrn:hotloop(begin)\n"
                                     "// qrn:hotloop(begin)\n"
                                     "// qrn:hotloop(end)\n"),
        "hotloop-alloc"));
}

TEST(RuleHotloopAlloc, HoistedScratchBufferBeforeTheLoopIsClean) {
    // The markers bracket the loop body, so a reused buffer is declared
    // above the begin marker.
    const auto fs = lint_source(
        "src/sim/x.cpp",
        "void f() {\n"
        "  std::vector<double> scratch;\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    // qrn:hotloop(begin)\n"
        "    scratch.clear();\n"
        "    use(scratch);\n"
        "    // qrn:hotloop(end)\n"
        "  }\n"
        "}\n");
    EXPECT_FALSE(has_rule(fs, "hotloop-alloc"));
    // Below the begin marker it is a finding, loop header or not.
    const auto below = lint_source(
        "src/sim/x.cpp",
        "void f() {\n"
        "  // qrn:hotloop(begin)\n"
        "  std::vector<double> scratch;\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    use(scratch);\n"
        "  }\n"
        "  // qrn:hotloop(end)\n"
        "}\n");
    ASSERT_TRUE(has_rule(below, "hotloop-alloc"));
    EXPECT_EQ(line_of(below, "hotloop-alloc"), 3);
}

TEST(RuleHotloopAlloc, DeclarationInsideTheLoopBodyIsStillFlagged) {
    const auto fs = lint_source(
        "src/sim/x.cpp",
        "void f() {\n"
        "  // qrn:hotloop(begin)\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    std::vector<double> row;\n"
        "    use(row);\n"
        "  }\n"
        "  // qrn:hotloop(end)\n"
        "}\n");
    ASSERT_TRUE(has_rule(fs, "hotloop-alloc"));
    EXPECT_EQ(line_of(fs, "hotloop-alloc"), 4);
}

TEST(RuleHotloopAlloc, NestedLoopDeclarationsAreFlagged) {
    const auto fs = lint_source(
        "src/sim/x.cpp",
        "void f() {\n"
        "  // qrn:hotloop(begin)\n"
        "  for (int i = 0; i < n; ++i) {\n"
        "    for (int j = 0; j < m; ++j) {\n"
        "      std::string cell = render(i, j);\n"
        "      use(cell);\n"
        "    }\n"
        "  }\n"
        "  // qrn:hotloop(end)\n"
        "}\n");
    ASSERT_TRUE(has_rule(fs, "hotloop-alloc"));
    EXPECT_EQ(line_of(fs, "hotloop-alloc"), 5);
}

TEST(RuleHotloopAlloc, RegionWithoutALoopKeepsTheOldBehavior) {
    // A region whose loop lives elsewhere (a callee, a macro) still flags
    // every allocation: the markers bracket a loop body wherever the loop
    // is.
    const auto fs = lint_source("src/sim/x.cpp",
                                "void f() {\n"
                                "  // qrn:hotloop(begin)\n"
                                "  std::vector<double> buffer;\n"
                                "  // qrn:hotloop(end)\n"
                                "}\n");
    EXPECT_TRUE(has_rule(fs, "hotloop-alloc"));
}

// ---- dispatcher-no-block -----------------------------------------------

TEST(RuleDispatcherNoBlock, SleepsAndJoinsInsideTheRegionAreFlagged) {
    const auto fs = lint_source(
        "src/serve/x.cpp",
        "void dispatch() {\n"
        "  // qrn:dispatcher(begin)\n"
        "  std::this_thread::sleep_for(std::chrono::seconds(1));\n"
        "  worker.join();\n"
        "  // qrn:dispatcher(end)\n"
        "}\n");
    ASSERT_TRUE(has_rule(fs, "dispatcher-no-block"));
    EXPECT_EQ(line_of(fs, "dispatcher-no-block"), 3);
}

TEST(RuleDispatcherNoBlock, SocketAndFileIoAreFlagged) {
    const auto fs = lint_source("src/serve/x.cpp",
                                "void dispatch() {\n"
                                "  // qrn:dispatcher(begin)\n"
                                "  socket.write_all(frame);\n"
                                "  // qrn:dispatcher(end)\n"
                                "}\n");
    EXPECT_TRUE(has_rule(fs, "dispatcher-no-block"));
    const auto fstream_fs =
        lint_source("src/serve/x.cpp",
                    "void dispatch() {\n"
                    "  // qrn:dispatcher(begin)\n"
                    "  std::ifstream manifest(path);\n"
                    "  // qrn:dispatcher(end)\n"
                    "}\n");
    EXPECT_TRUE(has_rule(fstream_fs, "dispatcher-no-block"));
}

TEST(RuleDispatcherNoBlock, TheSameCallsOutsideTheRegionAreFine) {
    const auto fs = lint_source(
        "src/serve/x.cpp",
        "void reader() {\n"
        "  socket.write_all(frame);\n"
        "  worker.join();\n"
        "}\n"
        "void dispatch() {\n"
        "  // qrn:dispatcher(begin)\n"
        "  while (auto job = queue_->pop()) { handle(*job); }\n"
        "  // qrn:dispatcher(end)\n"
        "}\n");
    EXPECT_FALSE(has_rule(fs, "dispatcher-no-block"));
}

TEST(RuleDispatcherNoBlock, UnbalancedMarkersAreFindings) {
    EXPECT_TRUE(has_rule(
        lint_source("src/serve/x.cpp", "// qrn:dispatcher(begin)\nint x;\n"),
        "dispatcher-no-block"));
    EXPECT_TRUE(has_rule(
        lint_source("src/serve/x.cpp", "int x;\n// qrn:dispatcher(end)\n"),
        "dispatcher-no-block"));
}

// ---- raw-fsync ---------------------------------------------------------

TEST(RuleRawFsync, RawFsyncOutsideTheSyncWrapperIsFlagged) {
    const auto fs = lint_source("src/store/x.cpp", "void f(int fd) { fsync(fd); }\n"
                                                   "void g(int fd) { fdatasync(fd); }\n");
    ASSERT_TRUE(has_rule(fs, "raw-fsync"));
    EXPECT_EQ(line_of(fs, "raw-fsync"), 1);
    EXPECT_EQ(std::count_if(fs.begin(), fs.end(),
                            [](const Finding& f) { return f.rule == "raw-fsync"; }),
              2);
    EXPECT_FALSE(has_rule(
        lint_source("src/store/sync.cpp", "void f(int fd) { fsync(fd); }\n"),
        "raw-fsync"));
}

// ---- suppressions ------------------------------------------------------

TEST(Suppressions, SameLineAllowWaivesTheFinding) {
    const auto fs = lint_source(
        "src/a.cpp",
        "int n = atoi(s);  // qrn-lint: allow(raw-parse) fixture exercises atoi\n");
    EXPECT_FALSE(has_rule(fs, "raw-parse"));
    EXPECT_FALSE(has_rule(fs, kSuppressionHygieneRule));
}

TEST(Suppressions, StandaloneCommentWaivesTheNextLine) {
    const auto fs = lint_source(
        "src/a.cpp",
        "// qrn-lint: allow(iostream-in-lib) CLI entry point prints here\n"
        "#include <iostream>\n");
    EXPECT_FALSE(has_rule(fs, "iostream-in-lib"));
}

TEST(Suppressions, DoNotLeakBeyondTheirLine) {
    const auto fs = lint_source(
        "src/a.cpp",
        "int a = atoi(s);  // qrn-lint: allow(raw-parse) only this line\n"
        "int b = atoi(t);\n");
    ASSERT_TRUE(has_rule(fs, "raw-parse"));
    EXPECT_EQ(line_of(fs, "raw-parse"), 2);
}

TEST(Suppressions, OnlyTheNamedRuleIsWaived) {
    const auto fs = lint_source(
        "src/a.cpp",
        "auto* p = new int(atoi(s));  // qrn-lint: allow(raw-parse) atoi is the point\n");
    EXPECT_FALSE(has_rule(fs, "raw-parse"));
    EXPECT_TRUE(has_rule(fs, "naked-new"));
}

TEST(Suppressions, CommaListWaivesSeveralRules) {
    const auto fs = lint_source(
        "src/a.cpp",
        "auto* p = new int(atoi(s));  "
        "// qrn-lint: allow(raw-parse, naked-new) fixture needs both\n");
    EXPECT_FALSE(has_rule(fs, "raw-parse"));
    EXPECT_FALSE(has_rule(fs, "naked-new"));
}

TEST(Suppressions, MissingReasonIsItselfAFinding) {
    const auto fs = lint_source(
        "src/a.cpp", "int n = atoi(s);  // qrn-lint: allow(raw-parse)\n");
    EXPECT_TRUE(has_rule(fs, kSuppressionHygieneRule));
    // And the malformed suppression must NOT waive the finding.
    EXPECT_TRUE(has_rule(fs, "raw-parse"));
}

TEST(Suppressions, UnknownRuleIdIsAFinding) {
    const auto fs = lint_source(
        "src/a.cpp", "// qrn-lint: allow(no-such-rule) misspelled\nint x;\n");
    EXPECT_TRUE(has_rule(fs, kSuppressionHygieneRule));
}

TEST(Suppressions, HygieneFindingsCannotBeSuppressed) {
    const auto fs = lint_source(
        "src/a.cpp",
        "// qrn-lint: allow(suppression-hygiene) trying to waive the waiver rule\n");
    EXPECT_TRUE(has_rule(fs, kSuppressionHygieneRule));
}

TEST(Suppressions, AllowTypoIsReportedNotIgnored) {
    const auto fs = lint_source(
        "src/a.cpp", "// qrn-lint: allow (raw-parse) space before paren\nint x;\n");
    EXPECT_TRUE(has_rule(fs, kSuppressionHygieneRule));
}

TEST(Suppressions, LineAboveCoversAMultiLineStatement) {
    // raw-fsync anchors to the call's first line, so the standalone
    // comment above it waives the whole statement even though the call
    // spans three lines.
    const auto fs = lint_source(
        "src/store/x.cpp",
        "void f(int fd) {\n"
        "  // qrn-lint: allow(raw-fsync) fixture syncs a scratch descriptor\n"
        "  check(fsync(\n"
        "      descriptor_of(\n"
        "          fd)));\n"
        "}\n");
    EXPECT_FALSE(has_rule(fs, "raw-fsync"));
    EXPECT_FALSE(has_rule(fs, kSuppressionHygieneRule));
}

TEST(Suppressions, WaiverIsPerLineNotPerRegion) {
    // Inside a dispatcher region, waiving one blocking call does not
    // blanket the region: the second call is still a finding.
    const auto fs = lint_source(
        "src/serve/x.cpp",
        "void dispatch() {\n"
        "  // qrn:dispatcher(begin)\n"
        "  sleep_for(tick);  // qrn-lint: allow(dispatcher-no-block) startup settle only\n"
        "  worker.join();\n"
        "  // qrn:dispatcher(end)\n"
        "}\n");
    ASSERT_TRUE(has_rule(fs, "dispatcher-no-block"));
    EXPECT_EQ(line_of(fs, "dispatcher-no-block"), 4);
}

TEST(Suppressions, ThreeRuleAllowListIsHonored) {
    const auto fs = lint_source(
        "src/store/x.cpp",
        "void f(int fd, const char* s) {\n"
        "  auto* p = new int(atoi(s) + fsync(fd));  "
        "// qrn-lint: allow(raw-parse, naked-new, raw-fsync) fixture hits all three\n"
        "}\n");
    EXPECT_FALSE(has_rule(fs, "raw-parse"));
    EXPECT_FALSE(has_rule(fs, "naked-new"));
    EXPECT_FALSE(has_rule(fs, "raw-fsync"));
}

TEST(Suppressions, ProseMentioningQrnLintIsNotASuppression) {
    const auto fs = lint_source(
        "src/a.cpp", "// qrn-lint: the toolkit's self-hosted gate\nint x;\n");
    EXPECT_FALSE(has_rule(fs, kSuppressionHygieneRule));
}

// ---- registry & paths --------------------------------------------------

TEST(Registry, EveryRuleHasIdAndSummary) {
    ASSERT_GE(rules().size(), 8u);
    for (const Rule& r : rules()) {
        EXPECT_FALSE(r.id.empty());
        EXPECT_FALSE(r.summary.empty());
        EXPECT_EQ(rule_ids().count(r.id), 1u);
    }
}

TEST(Paths, RelativizeFindsProjectRoots) {
    EXPECT_EQ(relativize("/root/repo/src/qrn/json.cpp"), "src/qrn/json.cpp");
    EXPECT_EQ(relativize("/a/b/tests/lint/x.cpp"), "tests/lint/x.cpp");
    EXPECT_EQ(relativize("bench/fig3_risk_norm.cpp"), "bench/fig3_risk_norm.cpp");
    EXPECT_EQ(relativize("/elsewhere/file.cpp"), "/elsewhere/file.cpp");
}

}  // namespace
}  // namespace qrn::lint
