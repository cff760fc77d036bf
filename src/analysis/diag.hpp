// Diagnostic model of the static analyzer (`dvbs2_lint`).
//
// Every lint rule reports findings as machine-readable Diagnostic records:
// a stable rule id (e.g. "code.girth4-info"), a severity, a location inside
// the analyzed artifact (table row/entry, ROM slot, datapath stage, ...), a
// human-readable message, and a fix hint. A Report aggregates the findings
// of one analysis run; the CLI renders it as text or JSON and derives its
// exit status from Report::error_count().
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dvbs2::analysis {

/// Finding severity. `Error` findings break a structural invariant the
/// architecture depends on (the configuration must be rejected); `Warning`
/// findings are legal but suspicious; `Note` carries proof context (e.g.
/// the computed static peak-conflict count) attached to a passing rule.
enum class Severity { Note, Warning, Error };

const char* to_string(Severity s);

/// One finding of one rule.
struct Diagnostic {
    std::string rule;      ///< stable rule id, "<family>.<name>"
    Severity severity = Severity::Error;
    std::string location;  ///< artifact coordinates, e.g. "row 3 entry 1"
    std::string message;   ///< what is wrong (or proven, for notes)
    std::string fix_hint;  ///< how to repair the configuration
};

/// Aggregated findings of one analysis run.
class Report {
public:
    /// Appends a finding.
    void add(Diagnostic d);
    /// Convenience: appends a finding built from its fields.
    void add(std::string rule, Severity severity, std::string location, std::string message,
             std::string fix_hint = "");
    /// Appends every finding of `other` (used by the aggregating analyzer).
    void merge(const Report& other);

    const std::vector<Diagnostic>& diagnostics() const noexcept { return diags_; }
    std::size_t error_count() const noexcept;
    std::size_t warning_count() const noexcept;
    bool clean() const noexcept { return error_count() == 0; }

    /// Findings whose rule id matches `rule` exactly.
    std::vector<Diagnostic> by_rule(const std::string& rule) const;
    /// Findings whose rule id is `family` or lives under it ("code" matches
    /// "code.params" but not "codebook.params"); see rule_in_family.
    std::vector<Diagnostic> by_family(const std::string& family) const;
    /// True iff at least one finding has rule id `rule`.
    bool has(const std::string& rule) const;

private:
    std::vector<Diagnostic> diags_;
};

/// Segment-aware family-prefix match: true iff `rule` equals `family` or
/// starts with `family` followed by a '.' — so "sched" does not claim the
/// "schedule.dataflow.*" rules. Backs Report::by_family and the CLI's
/// --only= filter.
bool rule_in_family(const std::string& rule, const std::string& family);

/// Renders one finding per line: "severity rule [location] message (hint)".
/// Findings are ordered deterministically (stable sort by rule, then
/// location), so output is byte-stable regardless of rule execution order.
void render_text(std::ostream& os, const Report& report);

/// Renders the report as a JSON array of finding objects plus a summary
/// object — the machine-readable interface of the CLI. Same deterministic
/// ordering as render_text, making the JSON usable in golden tests.
void render_json(std::ostream& os, const Report& report);

}  // namespace dvbs2::analysis
