/**
 * @file
 * Interns message templates to dense integer ids.
 *
 * Mining and checking operate on TemplateId, not strings; the catalog is
 * the single owner of template text. Templates are keyed by the pair
 * (service, templateText) — identical text from different services is a
 * different workflow step.
 */

#ifndef CLOUDSEER_LOGGING_TEMPLATE_CATALOG_HPP
#define CLOUDSEER_LOGGING_TEMPLATE_CATALOG_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "logging/flat_index.hpp"

namespace cloudseer::logging {

/** Dense template identifier; valid ids index the catalog's tables. */
using TemplateId = std::uint32_t;

/** Sentinel for "not interned". */
constexpr TemplateId kInvalidTemplate = 0xffffffffu;

/** Registry of message templates seen during modeling and checking. */
class TemplateCatalog
{
  public:
    /** Intern (service, template text); returns a stable id. */
    TemplateId intern(const std::string &service,
                      const std::string &template_text);

    /** Look up without interning; kInvalidTemplate when unknown. */
    TemplateId find(const std::string &service,
                    const std::string &template_text) const;

    /**
     * find() with the template's hashText() already known, as
     * VariableExtractor::scan returns it: the monitor's lookup hashes
     * only the (short) service name.
     */
    TemplateId find(std::string_view service,
                    std::string_view template_text,
                    std::uint64_t text_hash) const;

    /** Service that owns the template. */
    const std::string &service(TemplateId id) const;

    /** Constant text of the template. */
    const std::string &text(TemplateId id) const;

    /** Short human label "service: text" used in reports. */
    std::string label(TemplateId id) const;

    /** Number of interned templates. */
    std::size_t size() const { return entries.size(); }

  private:
    struct Entry
    {
        std::string service;
        std::string text;
    };

    std::vector<Entry> entries;
    FlatIndex index; ///< keyHash(service, text) -> id

    static std::uint64_t keyHash(std::string_view service,
                                 std::uint64_t text_hash);
};

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_TEMPLATE_CATALOG_HPP
