// Consequence classes: the discrete severity levels of the risk norm.
//
// Sec. III-A of the paper divides the severity/criticality dimension into
// "a manageable number of discrete levels, or consequence classes", spanning
// both quality-related consequences (perceived safety, emergency manoeuvres
// forced on other road users, material damage) and safety-related ones
// (light/moderate, severe, life-threatening injuries). The paper does not
// fix the number of classes; ConsequenceClassSet supports any ordered set.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace qrn {

/// Whether a consequence class concerns quality (economic harm / harm to
/// brand) or functional safety (harm of injury to humans). Paper Fig. 2.
enum class ConsequenceDomain { Quality, Safety };

[[nodiscard]] std::string_view to_string(ConsequenceDomain domain) noexcept;

/// One discrete consequence class (denoted v in the paper).
struct ConsequenceClass {
    std::string id;           ///< Short key, e.g. "vQ1", "vS3".
    std::string name;         ///< Human name, e.g. "Severe injuries".
    ConsequenceDomain domain = ConsequenceDomain::Safety;
    int rank = 0;             ///< Strictly increasing with severity.
    std::string example;      ///< Illustrative incident (Fig. 2 blue box).
};

/// An ordered, validated set of consequence classes.
///
/// Invariants established at construction:
///  - at least one class;
///  - ids unique and non-empty;
///  - ranks strictly increasing in the order given;
///  - quality classes (if any) precede safety classes, matching the paper's
///    severity axis where quality consequences are less severe than injury
///    consequences.
class ConsequenceClassSet {
public:
    explicit ConsequenceClassSet(std::vector<ConsequenceClass> classes);

    [[nodiscard]] std::size_t size() const noexcept { return classes_.size(); }
    [[nodiscard]] const ConsequenceClass& at(std::size_t index) const;
    [[nodiscard]] const std::vector<ConsequenceClass>& all() const noexcept {
        return classes_;
    }

    /// Index of the class with the given id, if present.
    [[nodiscard]] std::optional<std::size_t> index_of(std::string_view id) const noexcept;

    /// The six example classes of the paper's Figs. 2-3: vQ1 (perceived
    /// safety), vQ2 (emergency manoeuvre), vQ3 (material damage), vS1 (light
    /// to moderate injuries), vS2 (severe injuries), vS3 (life-threatening
    /// injuries).
    [[nodiscard]] static ConsequenceClassSet paper_example();

private:
    std::vector<ConsequenceClass> classes_;
};

}  // namespace qrn
