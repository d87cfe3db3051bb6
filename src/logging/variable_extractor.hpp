/**
 * @file
 * Splits a raw log message into its constant template and variable parts.
 *
 * Following the paper (§3.1), three variable classes are recognised:
 * UUIDs (8-4-4-4-12 hex), IPv4 addresses, and bare numbers. The template
 * is the message with each variable replaced by a kind placeholder; the
 * value set holds the extracted strings.
 */

#ifndef CLOUDSEER_LOGGING_VARIABLE_EXTRACTOR_HPP
#define CLOUDSEER_LOGGING_VARIABLE_EXTRACTOR_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cloudseer::logging {

/** Kind of a variable part found in a log message. */
enum class VariableKind
{
    Uuid,
    Ip,
    Number,
};

/** One extracted variable occurrence. */
struct Variable
{
    VariableKind kind;
    std::string text;

    bool operator==(const Variable &other) const = default;
};

/** A variable occurrence as a view into the scanned body. */
struct VariableRef
{
    VariableKind kind;
    std::string_view text;
};

/** Result of template/variable separation for one message. */
struct ParsedBody
{
    std::string templateText;        ///< body with placeholders substituted
    std::vector<Variable> variables; ///< in order of appearance
};

/**
 * Hand-rolled single-pass scanner (no std::regex — it dominates runtime
 * at stream rates). Deterministic longest-match at each position with
 * precedence UUID > IP > number. Character classes come from one
 * 256-entry table (ASCII, as the C locale classifies), so no locale
 * call runs per byte.
 */
class VariableExtractor
{
  public:
    /** Placeholder inserted for each kind. */
    static const char *placeholder(VariableKind kind);

    /**
     * Scan one message body into caller-owned buffers (both replaced),
     * so a reused pair allocates nothing once warm. Literal runs are
     * appended to `templ` whole; `vars` views into `body`, which must
     * outlive them.
     *
     * @return hashText(templ), so a catalog lookup need not hash the
     *         template again (TemplateCatalog::find).
     */
    std::uint64_t scan(std::string_view body, std::string &templ,
                       std::vector<VariableRef> &vars) const;

    /** Parse one message body into template + variables (owning). */
    ParsedBody parse(const std::string &body) const;

    /**
     * Extract only the identifier values used by the checker's
     * identifier-set heuristic. Numbers are excluded by default — they
     * collide across unrelated sequences (ports, sizes, HTTP codes).
     *
     * @param body           Raw message body.
     * @param include_numbers Whether bare numbers also count.
     */
    std::vector<std::string>
    extractIdentifiers(const std::string &body,
                       bool include_numbers = false) const;
};

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_VARIABLE_EXTRACTOR_HPP
