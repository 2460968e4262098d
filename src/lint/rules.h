// The qrn-lint rule registry.
//
// Each rule encodes one project invariant that earlier PRs established by
// convention; the registry makes them machine-checked. Rules see one file
// at a time as a token stream (tokenizer.h), so string literals, comments
// and raw strings can never trip them, and report Findings that the
// linter (linter.h) filters through inline suppressions (suppression.h).
#pragma once

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "lint/finding.h"
#include "lint/tokenizer.h"

namespace qrn::lint {

struct FileContext {
    /// Project-relative path with '/' separators (e.g. "src/qrn/json.cpp");
    /// rules scope themselves by prefix/suffix matches on it.
    std::string path;
    bool is_header = false;
    /// Full token stream, comments included.
    std::vector<Token> tokens;
    /// Indices into `tokens` of the non-comment tokens, in order; rules
    /// match identifier/punctuator sequences on this view.
    std::vector<std::size_t> code;
};

/// Builds a FileContext from source text (tokenizes and classifies).
[[nodiscard]] FileContext make_context(std::string path, std::string_view src);

struct Rule {
    std::string id;
    std::string summary;  ///< one line for --list-rules and docs
    std::function<void(const FileContext&, std::vector<Finding>&)> check;
};

/// All registered rules, in stable documentation order. Includes the
/// suppression-hygiene pseudo-rule (checked by SuppressionSet, listed
/// here so --list-rules documents it and allow() can validate ids).
[[nodiscard]] const std::vector<Rule>& rules();

/// The registered rule ids, for suppression validation.
[[nodiscard]] const std::set<std::string>& rule_ids();

}  // namespace qrn::lint
