#include "lint/linter.h"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint/rules.h"
#include "lint/suppression.h"

namespace qrn::lint {

namespace fs = std::filesystem;

namespace {

[[nodiscard]] bool lintable_extension(const fs::path& p) {
    static constexpr std::array<std::string_view, 6> kExts{
        ".cpp", ".h", ".hpp", ".cc", ".hh", ".inl"};
    const std::string ext = p.extension().string();
    return std::find(kExts.begin(), kExts.end(), ext) != kExts.end();
}

void sort_findings(std::vector<Finding>& findings) {
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  if (a.file != b.file) return a.file < b.file;
                  if (a.line != b.line) return a.line < b.line;
                  if (a.rule != b.rule) return a.rule < b.rule;
                  return a.message < b.message;
              });
    findings.erase(std::unique(findings.begin(), findings.end(),
                               [](const Finding& a, const Finding& b) {
                                   return a.file == b.file && a.line == b.line &&
                                          a.rule == b.rule &&
                                          a.message == b.message;
                               }),
                   findings.end());
}

}  // namespace

std::string relativize(std::string path) {
    std::replace(path.begin(), path.end(), '\\', '/');
    static constexpr std::array<std::string_view, 4> kRoots{"src", "tests",
                                                            "bench", "examples"};
    std::size_t best = std::string::npos;
    for (const std::string_view root : kRoots) {
        // Built with append: GCC 12 at -O3 reports a false -Wrestrict
        // inside libstdc++ for `"/" + std::string(root)`.
        std::string mid = "/";
        mid.append(root).append("/");
        const std::size_t at = path.rfind(mid);
        if (at != std::string::npos && (best == std::string::npos || at + 1 > best)) {
            best = at + 1;
        }
        std::string lead(root);
        lead.append("/");
        if (path.compare(0, lead.size(), lead) == 0 && best == std::string::npos) {
            best = 0;
        }
    }
    return best == std::string::npos ? path : path.substr(best);
}

std::vector<Finding> lint_source(const std::string& display_path,
                                 std::string_view content) {
    const FileContext ctx = make_context(relativize(display_path), content);

    std::vector<Finding> findings;
    SuppressionSet suppressions(ctx.tokens, rule_ids(), ctx.path, findings);

    std::vector<Finding> raw;
    for (const Rule& rule : rules()) rule.check(ctx, raw);
    for (Finding& f : raw) {
        if (!suppressions.allows(f.rule, f.line)) {
            findings.push_back(std::move(f));
        }
    }
    sort_findings(findings);
    return findings;
}

LintResult lint_paths(const std::vector<std::string>& paths, std::string& error) {
    std::vector<fs::path> files;
    for (const std::string& p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
                if (entry.is_regular_file() && lintable_extension(entry.path())) {
                    files.push_back(entry.path());
                }
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            error = "path does not exist or is not a file/directory: " + p;
            return {};
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    LintResult result;
    for (const fs::path& file : files) {
        std::ifstream in(file, std::ios::binary);
        if (!in) {
            error = "cannot read " + file.string();
            return {};
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        ++result.files_scanned;
        std::vector<Finding> file_findings =
            lint_source(file.string(), buf.str());
        result.findings.insert(result.findings.end(),
                               std::make_move_iterator(file_findings.begin()),
                               std::make_move_iterator(file_findings.end()));
    }
    sort_findings(result.findings);
    return result;
}

}  // namespace qrn::lint
