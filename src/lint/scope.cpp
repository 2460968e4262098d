#include "lint/scope.h"

#include <array>
#include <algorithm>

namespace qrn::lint {

namespace {

constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

template <std::size_t N>
[[nodiscard]] bool any_of_names(const std::array<std::string_view, N>& names,
                                std::string_view text) {
    return std::find(names.begin(), names.end(), text) != names.end();
}

// Tokens that may sit between a function head's ')' and its '{' without
// changing what the brace opens.
constexpr std::array<std::string_view, 7> kHeadQualifiers{
    "const", "noexcept", "override", "final", "mutable", "volatile", "&"};

// Identifiers a paren group may be attached to as a qualifier rather
// than a parameter list: noexcept(...), alignas(...), throw() specs.
constexpr std::array<std::string_view, 3> kParenQualifiers{"noexcept",
                                                           "alignas", "throw"};

}  // namespace

// ---- CodeView ----------------------------------------------------------

std::size_t CodeView::next(std::size_t ci) const {
    ++ci;
    while (ci < size() && is_pp(ci)) ++ci;
    return ci;
}

std::size_t CodeView::prev(std::size_t ci) const {
    while (ci > 0) {
        --ci;
        if (!is_pp(ci)) return ci;
    }
    return size();
}

std::size_t CodeView::match_forward(std::size_t open_ci) const {
    const std::string open = tok(open_ci).text;
    const std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    for (std::size_t i = open_ci; i < size(); ++i) {
        if (is_pp(i)) continue;
        const std::string& t = tok(i).text;
        if (t == open) {
            ++depth;
        } else if (t == close) {
            if (--depth == 0) return i;
        }
    }
    return size();
}

std::size_t CodeView::match_backward(std::size_t close_ci) const {
    const std::string close = tok(close_ci).text;
    const std::string open = close == ")" ? "(" : close == "}" ? "{" : "[";
    int depth = 0;
    for (std::size_t i = close_ci + 1; i-- > 0;) {
        if (is_pp(i)) continue;
        const std::string& t = tok(i).text;
        if (t == close) {
            ++depth;
        } else if (t == open) {
            if (--depth == 0) return i;
        }
    }
    return size();
}

std::size_t CodeView::skip_template_args(std::size_t lt_ci,
                                         std::size_t fail) const {
    int depth = 0;
    for (std::size_t i = lt_ci; i < size(); ++i) {
        if (is_pp(i)) continue;
        const std::string& t = tok(i).text;
        if (t == "<") {
            ++depth;
        } else if (t == ">") {
            if (--depth == 0) return next(i);
        } else if (t == ";" || t == "{" || t == "}") {
            return fail;  // was a comparison, not template arguments
        }
    }
    return fail;
}

// ---- preprocessor_lines ------------------------------------------------

std::set<int> preprocessor_lines(std::string_view src) {
    std::set<int> lines;
    int line = 1;
    bool continued = false;  // previous directive line ended in backslash
    std::size_t i = 0;
    while (i <= src.size()) {
        const std::size_t eol = src.find('\n', i);
        const std::size_t end = eol == std::string_view::npos ? src.size() : eol;
        const std::string_view text = src.substr(i, end - i);
        bool directive = continued;
        if (!directive) {
            std::size_t first = text.find_first_not_of(" \t");
            directive = first != std::string_view::npos && text[first] == '#';
        }
        if (directive) {
            lines.insert(line);
            std::string_view trimmed = text;
            while (!trimmed.empty() &&
                   (trimmed.back() == '\r' || trimmed.back() == ' ' ||
                    trimmed.back() == '\t')) {
                trimmed.remove_suffix(1);
            }
            continued = !trimmed.empty() && trimmed.back() == '\\';
        } else {
            continued = false;
        }
        if (eol == std::string_view::npos) break;
        i = eol + 1;
        ++line;
    }
    return lines;
}

// ---- ScopeTree ---------------------------------------------------------

ScopeTree::ScopeTree(CodeView view) : view_(view) { build(); }

void ScopeTree::build() {
    Scope file;
    file.kind = ScopeKind::File;
    file.parent = -1;
    file.open_ci = 0;
    file.close_ci = view_.size();
    file.open_line = 1;
    scopes_.push_back(file);
    scope_of_.assign(view_.size(), 0);

    std::vector<int> stack{0};
    for (std::size_t ci = 0; ci < view_.size(); ++ci) {
        scope_of_[ci] = stack.back();
        if (view_.is_pp(ci)) continue;
        const std::string& t = view_.tok(ci).text;
        if (t == "{") {
            Scope s;
            s.parent = stack.back();
            s.open_ci = ci;
            s.close_ci = view_.size();
            s.open_line = view_.tok(ci).line;
            classify(ci, s);
            const int id = static_cast<int>(scopes_.size());
            scopes_.push_back(s);
            scope_of_[ci] = id;
            stack.push_back(id);
        } else if (t == "}" && stack.size() > 1) {
            scopes_[stack.back()].close_ci = ci;
            scope_of_[ci] = stack.back();
            stack.pop_back();
        }
    }
    // Unclosed scopes (truncated/unbalanced input) keep close_ci = size().
}

int ScopeTree::scope_at(std::size_t ci) const {
    return ci < scope_of_.size() ? scope_of_[ci] : 0;
}

bool ScopeTree::is_ancestor(int ancestor, int scope) const {
    for (int s = scope; s >= 0; s = scopes_[static_cast<std::size_t>(s)].parent) {
        if (s == ancestor) return true;
    }
    return false;
}

int ScopeTree::enclosing_function(int scope) const {
    for (int s = scope; s >= 0; s = scopes_[static_cast<std::size_t>(s)].parent) {
        const ScopeKind k = scopes_[static_cast<std::size_t>(s)].kind;
        if (k == ScopeKind::Function || k == ScopeKind::Lambda) return s;
    }
    return -1;
}

namespace {

/// `b` sits on the last identifier of a possibly-qualified name
/// (Server::~Server, std::move, try_push). Returns the ci where the
/// chain begins; `text_out` (optional) receives the chain's source text.
std::size_t qualified_chain_begin(const CodeView& v, std::size_t b,
                                  std::string* text_out) {
    std::size_t begin = b;
    for (;;) {
        std::size_t p = v.prev(begin);
        if (p < v.size() && v.is(p, "~")) {
            begin = p;
            p = v.prev(begin);
        }
        if (p < v.size() && v.is(p, "::")) {
            const std::size_t q = v.prev(p);
            if (q < v.size() && v.tok(q).kind == TokKind::Identifier) {
                begin = q;
                continue;
            }
            begin = p;  // leading :: of a global-qualified name
        }
        break;
    }
    if (text_out != nullptr) {
        text_out->clear();
        for (std::size_t i = begin; i <= b && i < v.size(); i = v.next(i)) {
            *text_out += v.tok(i).text;
            if (i == b) break;
        }
    }
    return begin;
}

/// Walks back over trailing head qualifiers (const/noexcept/&&/
/// noexcept(...)/...) from `j`; returns the first index that is not one.
std::size_t absorb_head_qualifiers(const CodeView& v, std::size_t j) {
    for (int guard = 0; guard < 16 && j < v.size(); ++guard) {
        const Token& t = v.tok(j);
        if (any_of_names(kHeadQualifiers, t.text)) {
            j = v.prev(j);
            continue;
        }
        if (t.text == ")") {
            const std::size_t open = v.match_backward(j);
            if (open >= v.size()) break;
            const std::size_t before = v.prev(open);
            if (before < v.size() &&
                any_of_names(kParenQualifiers, v.tok(before).text)) {
                j = v.prev(before);
                continue;
            }
        }
        break;
    }
    return j;
}

/// If the tokens ending at `j` form a trailing-return type
/// ("-> std::vector<int>"), returns the index of the ')' the arrow is
/// attached to; otherwise kNoIndex.
std::size_t absorb_trailing_return(const CodeView& v, std::size_t j) {
    for (int guard = 0; guard < 32 && j < v.size(); ++guard) {
        const Token& t = v.tok(j);
        if (t.text == ">") {
            const std::size_t p = v.prev(j);
            if (p < v.size() && v.is(p, "-")) {
                const std::size_t paren = v.prev(p);
                if (paren < v.size() && v.is(paren, ")")) return paren;
                return kNoIndex;
            }
            j = v.prev(j);
            continue;
        }
        if (t.kind == TokKind::Identifier || t.kind == TokKind::Number ||
            t.text == "::" || t.text == "<" || t.text == "*" || t.text == "&" ||
            t.text == ",") {
            j = v.prev(j);
            continue;
        }
        return kNoIndex;
    }
    return kNoIndex;
}

constexpr std::array<std::string_view, 5> kControlBeforeParen{
    "for", "while", "if", "switch", "catch"};

}  // namespace

void ScopeTree::classify(std::size_t open_ci, Scope& s) const {
    const CodeView& v = view_;
    std::size_t j = v.prev(open_ci);
    if (j >= v.size()) {
        s.kind = ScopeKind::Block;
        return;
    }
    const Token& before = v.tok(j);
    if (before.kind == TokKind::String) {
        s.kind = ScopeKind::Block;  // extern "C" { ... }
        return;
    }
    const std::string& bt = before.text;
    if (bt == "else") {
        s.kind = ScopeKind::Conditional;
        return;
    }
    if (bt == "do") {
        s.kind = ScopeKind::Loop;
        return;
    }
    if (bt == "try") {
        s.kind = ScopeKind::Try;
        return;
    }
    if (bt == "class" || bt == "struct" || bt == "union") {
        s.kind = ScopeKind::Class;  // anonymous
        return;
    }
    if (bt == "enum") {
        s.kind = ScopeKind::Enum;
        return;
    }
    if (bt == "namespace") {
        s.kind = ScopeKind::Namespace;
        return;
    }
    if (bt == "}") {
        // `S() : a_(a), b_{b} {` -- a brace-init entry closes the
        // member-initializer list right before the constructor body.
        const std::size_t o = v.match_backward(j);
        const std::size_t nb = o < v.size() ? v.prev(o) : v.size();
        if (nb < v.size() && v.tok(nb).kind == TokKind::Identifier) {
            const std::size_t cb = qualified_chain_begin(v, nb, nullptr);
            const std::size_t p = v.prev(cb);
            if (p < v.size() && (v.is(p, ":") || v.is(p, ",")) &&
                classify_member_init_list(p, s)) {
                return;
            }
        }
        s.kind = ScopeKind::Block;
        return;
    }
    if (bt == ";" || bt == "{" || bt == ":") {
        s.kind = ScopeKind::Block;  // statement-position brace, label, case
        return;
    }

    std::size_t head_end = absorb_head_qualifiers(v, j);
    if (head_end < v.size() && !v.is(head_end, ")")) {
        // "auto f(...) -> ret {" puts return-type tokens before the brace.
        const std::size_t paren = absorb_trailing_return(v, head_end);
        if (paren != kNoIndex) head_end = paren;
    }

    if (head_end < v.size() && v.is(head_end, "]")) {
        const std::size_t lb = v.match_backward(head_end);
        const std::size_t before_lb = lb < v.size() ? v.prev(lb) : v.size();
        if (before_lb < v.size() && v.is_ident(before_lb, "operator")) {
            s.kind = ScopeKind::Function;
            s.name = "operator[]";
            return;
        }
        s.kind = ScopeKind::Lambda;
        return;
    }

    if (head_end < v.size() && v.is(head_end, ")")) {
        classify_paren_head(head_end, s);
        return;
    }

    if (before.kind == TokKind::Identifier) {
        classify_statement_head(open_ci, s);
        return;
    }
    s.kind = ScopeKind::Init;  // "= {", "f({", "{1, {2, 3}}", ...
}

/// `close_ci` sits on the ')' directly (after qualifier absorption)
/// preceding the '{': decide among control statement, lambda, function
/// definition, and constructor with member-initializer list.
void ScopeTree::classify_paren_head(std::size_t close_ci, Scope& s) const {
    const CodeView& v = view_;
    const std::size_t open = v.match_backward(close_ci);
    if (open >= v.size()) {
        s.kind = ScopeKind::Block;
        return;
    }
    std::size_t b = v.prev(open);
    if (b >= v.size()) {
        s.kind = ScopeKind::Init;
        return;
    }
    // if constexpr (...) { -- the keyword hides behind "constexpr".
    if (v.is_ident(b, "constexpr")) {
        const std::size_t bb = v.prev(b);
        if (bb < v.size() && v.is_ident(bb, "if")) b = bb;
    }
    const std::string& bt = v.tok(b).text;
    if (any_of_names(kControlBeforeParen, bt)) {
        s.kind = bt == "for" || bt == "while" ? ScopeKind::Loop
                 : bt == "catch"             ? ScopeKind::Try
                                             : ScopeKind::Conditional;
        s.params_open_ci = open;
        s.params_close_ci = close_ci;
        return;
    }
    if (bt == "]") {
        const std::size_t lb = v.match_backward(b);
        const std::size_t before_lb = lb < v.size() ? v.prev(lb) : v.size();
        if (before_lb < v.size() && v.is_ident(before_lb, "operator")) {
            s.kind = ScopeKind::Function;
            s.name = "operator[]";
            s.params_open_ci = open;
            s.params_close_ci = close_ci;
            return;
        }
        s.kind = ScopeKind::Lambda;
        s.params_open_ci = open;
        s.params_close_ci = close_ci;
        return;
    }
    if (bt == ")") {
        // operator()(params) { -- the call-operator's own parens.
        const std::size_t o2 = v.match_backward(b);
        const std::size_t before_o2 = o2 < v.size() ? v.prev(o2) : v.size();
        if (before_o2 < v.size() && v.is_ident(before_o2, "operator")) {
            s.kind = ScopeKind::Function;
            s.name = "operator()";
            s.params_open_ci = open;
            s.params_close_ci = close_ci;
            return;
        }
        s.kind = ScopeKind::Init;
        return;
    }
    if (v.tok(b).kind == TokKind::Punct) {
        // operator==(...) { / operator+(...) { -- scan back over the
        // (at most two-token) operator symbol for the keyword.
        std::size_t p = b;
        for (int step = 0; step < 2 && p < v.size(); ++step) {
            p = v.prev(p);
            if (p < v.size() && v.is_ident(p, "operator")) {
                s.kind = ScopeKind::Function;
                s.name = "operator" + v.tok(b).text;
                s.params_open_ci = open;
                s.params_close_ci = close_ci;
                return;
            }
            if (p >= v.size() || v.tok(p).kind != TokKind::Punct) break;
        }
        s.kind = ScopeKind::Init;
        return;
    }
    if (v.tok(b).kind != TokKind::Identifier) {
        s.kind = ScopeKind::Init;
        return;
    }

    std::string name;
    const std::size_t chain_begin = qualified_chain_begin(v, b, &name);
    const std::size_t p = v.prev(chain_begin);
    if (p < v.size() && v.is_ident(p, "operator")) {
        // conversion operator: operator bool() {
        s.kind = ScopeKind::Function;
        s.name = "operator " + name;
        s.params_open_ci = open;
        s.params_close_ci = close_ci;
        return;
    }
    if (p < v.size() && (v.is(p, ":") || v.is(p, ","))) {
        // The paren belonged to the last entry of a constructor's
        // member-initializer list; walk the list back to the ':' and
        // classify the real head before it.
        if (classify_member_init_list(p, s)) return;
        s.kind = ScopeKind::Init;
        return;
    }
    s.kind = ScopeKind::Function;
    s.name = name;
    s.params_open_ci = open;
    s.params_close_ci = close_ci;
}

/// `cur` sits on the ':' or ',' preceding a member-initializer entry.
/// Walks entries (`name(...)` or `name{...}`, possibly qualified)
/// backward to the list's ':' and classifies the constructor head before
/// it. Returns false when the shape is not an initializer list after all.
bool ScopeTree::classify_member_init_list(std::size_t cur, Scope& s) const {
    const CodeView& v = view_;
    for (int guard = 0; guard < 64 && cur < v.size(); ++guard) {
        if (v.is(cur, ":")) {
            const std::size_t head = absorb_head_qualifiers(v, v.prev(cur));
            if (head < v.size() && v.is(head, ")")) {
                classify_paren_head(head, s);
                return true;
            }
            return false;
        }
        if (!v.is(cur, ",")) return false;
        const std::size_t e = v.prev(cur);
        if (e >= v.size() || (!v.is(e, ")") && !v.is(e, "}"))) return false;
        const std::size_t o = v.match_backward(e);
        if (o >= v.size()) return false;
        const std::size_t nb = v.prev(o);
        if (nb >= v.size() || v.tok(nb).kind != TokKind::Identifier) return false;
        cur = v.prev(qualified_chain_begin(v, nb, nullptr));
    }
    return false;
}

/// The brace follows a bare identifier: scan the statement head backward
/// for "namespace N {", "class/struct/union X ... {", "enum [class] E {";
/// everything else is a braced initializer.
void ScopeTree::classify_statement_head(std::size_t open_ci, Scope& s) const {
    const CodeView& v = view_;
    // Find the statement's first token: walk back to ; { } skipping
    // balanced bracket groups (a for-loop's header semicolons sit inside
    // parens and do not end the statement).
    std::size_t begin = open_ci;
    std::size_t i = v.prev(open_ci);
    while (i < v.size()) {
        const std::string& t = v.tok(i).text;
        if (t == ";" || t == "{" || t == "}") break;
        if (t == ")" || t == "]") {
            const std::size_t o = v.match_backward(i);
            if (o >= v.size()) break;
            begin = o;
            i = v.prev(o);
            continue;
        }
        begin = i;
        i = v.prev(i);
    }

    std::size_t k = begin;
    // template <...> prefix, storage/linkage qualifiers.
    for (int guard = 0; guard < 8 && k < open_ci; ++guard) {
        if (v.is_ident(k, "template")) {
            const std::size_t lt = v.next(k);
            if (lt < v.size() && v.is(lt, "<")) {
                k = v.skip_template_args(lt, open_ci);
                continue;
            }
        }
        if (v.is_ident(k, "inline") || v.is_ident(k, "static") ||
            v.is_ident(k, "constexpr") || v.is_ident(k, "export") ||
            v.is_ident(k, "typename")) {
            k = v.next(k);
            continue;
        }
        break;
    }
    if (k >= open_ci) {
        s.kind = ScopeKind::Init;
        return;
    }

    if (v.is_ident(k, "namespace")) {
        s.kind = ScopeKind::Namespace;
        for (std::size_t n = v.next(k); n < open_ci; n = v.next(n)) {
            s.name += v.tok(n).text;
        }
        return;
    }
    const bool is_class = v.is_ident(k, "class") || v.is_ident(k, "struct") ||
                          v.is_ident(k, "union");
    const bool is_enum = v.is_ident(k, "enum");
    if (!is_class && !is_enum) {
        s.kind = ScopeKind::Init;
        return;
    }
    s.kind = is_enum ? ScopeKind::Enum : ScopeKind::Class;
    std::size_t n = v.next(k);
    if (is_enum && n < open_ci &&
        (v.is_ident(n, "class") || v.is_ident(n, "struct"))) {
        n = v.next(n);
    }
    // Skip attributes ([[nodiscard]]) and alignas(...) before the name.
    for (int guard = 0; guard < 4 && n < open_ci; ++guard) {
        if (v.is(n, "[")) {
            n = v.next(v.match_forward(n));
            continue;
        }
        if (v.is_ident(n, "alignas")) {
            const std::size_t po = v.next(n);
            if (po < v.size() && v.is(po, "(")) {
                n = v.next(v.match_forward(po));
                continue;
            }
        }
        break;
    }
    if (n < open_ci && v.tok(n).kind == TokKind::Identifier) {
        s.name = v.tok(n).text;
    }
}

}  // namespace qrn::lint
