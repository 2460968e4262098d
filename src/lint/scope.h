// The scope layer of qrn-lint's lightweight semantic model.
//
// A ScopeTree recovers the brace structure of one file from the token
// stream alone - no preprocessor, no name lookup, no libclang - and
// classifies each `{...}` region (namespace, class, function, lambda,
// loop, conditional, try/catch, plain block, or braced initializer) by
// looking at the tokens immediately before the opening brace. Tokens on
// preprocessor-directive lines are masked out first, so an unbalanced
// brace inside an `#ifdef` arm or a function-like macro body cannot skew
// the tree for the code around it. The result is deliberately coarse:
// scope-aware rules need "which function/loop/class am I in" and "does
// this lock guard's scope enclose that member access", not full semantic
// analysis.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/tokenizer.h"

namespace qrn::lint {

/// A borrowing view over one file's non-comment tokens with the
/// preprocessor-directive lines masked out. All scope-layer code walks
/// this view; `ci` indices below are indices into `code`.
class CodeView {
public:
    CodeView(const std::vector<Token>& tokens,
             const std::vector<std::size_t>& code,
             const std::set<int>& pp_lines)
        : tokens_(&tokens), code_(&code), pp_lines_(&pp_lines) {}

    [[nodiscard]] std::size_t size() const { return code_->size(); }
    [[nodiscard]] const Token& tok(std::size_t ci) const {
        return (*tokens_)[(*code_)[ci]];
    }
    /// True when the token sits on a preprocessor-directive line (masked
    /// out of structural analysis).
    [[nodiscard]] bool is_pp(std::size_t ci) const {
        return pp_lines_->count(tok(ci).line) != 0;
    }
    [[nodiscard]] bool is(std::size_t ci, std::string_view text) const {
        return ci < size() && tok(ci).text == text;
    }
    [[nodiscard]] bool is_ident(std::size_t ci, std::string_view text) const {
        return ci < size() && tok(ci).kind == TokKind::Identifier &&
               tok(ci).text == text;
    }
    /// Next non-preprocessor index strictly after `ci`, or size().
    [[nodiscard]] std::size_t next(std::size_t ci) const;
    /// Previous non-preprocessor index strictly before `ci`, or size()
    /// (the uniform "no such index" sentinel) when none exists.
    [[nodiscard]] std::size_t prev(std::size_t ci) const;
    /// Opener at `open_ci` is one of ( { [ : index of the matching
    /// closer, or size() when the file never closes it.
    [[nodiscard]] std::size_t match_forward(std::size_t open_ci) const;
    /// Closer at `close_ci` is one of ) } ] : index of the matching
    /// opener, or size() when there is none.
    [[nodiscard]] std::size_t match_backward(std::size_t close_ci) const;
    /// `lt_ci` sits on "<": index just past the matching ">", or `fail`
    /// when the run hits ; { } first (a comparison, not template args).
    [[nodiscard]] std::size_t skip_template_args(std::size_t lt_ci,
                                                 std::size_t fail) const;

private:
    const std::vector<Token>* tokens_;
    const std::vector<std::size_t>* code_;
    const std::set<int>* pp_lines_;
};

enum class ScopeKind {
    File,         ///< the implicit whole-file scope (always scope 0)
    Namespace,    ///< namespace N { ... }   (name "" when anonymous)
    Class,        ///< class/struct/union body
    Enum,         ///< enum / enum class body
    Function,     ///< free or member function body (name may be qualified)
    Lambda,       ///< lambda body
    Loop,         ///< for / while / do body
    Conditional,  ///< if / else / switch body
    Try,          ///< try or catch body
    Block,        ///< bare { ... } statement block, extern "C", unknown
    Init,         ///< braced initializer / aggregate init (not a scope in
                  ///< the language, tracked so decls inside are ignored)
};

struct Scope {
    ScopeKind kind = ScopeKind::Block;
    /// Namespace/class name, or the function's (possibly ::-qualified)
    /// name; empty for anonymous/unnamed scopes.
    std::string name;
    int parent = -1;           ///< index into scopes(); -1 for File
    std::size_t open_ci = 0;   ///< ci of the '{' (File: 0)
    std::size_t close_ci = 0;  ///< ci of the matching '}' (File: size())
    int open_line = 0;         ///< line of the '{' (File: 1)
    /// For Function/Lambda/Loop/Conditional/Try heads: the ci range of
    /// the head's parenthesis list '(' .. ')'. Both 0 when none.
    std::size_t params_open_ci = 0;
    std::size_t params_close_ci = 0;
};

class ScopeTree {
public:
    explicit ScopeTree(CodeView view);

    [[nodiscard]] const std::vector<Scope>& scopes() const { return scopes_; }
    [[nodiscard]] const CodeView& view() const { return view_; }
    /// Innermost scope owning code index `ci` (the '{' and '}' of a scope
    /// belong to that scope). Always valid: falls back to 0 (File).
    [[nodiscard]] int scope_at(std::size_t ci) const;
    /// True when `ancestor` is `scope` or one of its ancestors.
    [[nodiscard]] bool is_ancestor(int ancestor, int scope) const;
    /// Nearest enclosing Function or Lambda (self included), or -1.
    [[nodiscard]] int enclosing_function(int scope) const;

private:
    void build();
    /// Classifies the scope opened by the '{' at `open_ci` and fills
    /// kind/name/params of `s`.
    void classify(std::size_t open_ci, Scope& s) const;
    void classify_paren_head(std::size_t close_ci, Scope& s) const;
    void classify_statement_head(std::size_t open_ci, Scope& s) const;
    bool classify_member_init_list(std::size_t cur, Scope& s) const;

    CodeView view_;
    std::vector<Scope> scopes_;
    std::vector<int> scope_of_;  ///< per code index, innermost scope
};

/// Lines (1-based) that belong to preprocessor directives, including
/// backslash-continued continuation lines. Computed from raw source text.
[[nodiscard]] std::set<int> preprocessor_lines(std::string_view src);

}  // namespace qrn::lint
