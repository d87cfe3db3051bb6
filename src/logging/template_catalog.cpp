#include "logging/template_catalog.hpp"

#include "common/error.hpp"

namespace cloudseer::logging {

std::uint64_t
TemplateCatalog::keyHash(std::string_view service, std::uint64_t text_hash)
{
    // Identical text from different services is a different template.
    return text_hash ^ (hashText(service) * 0x9e3779b97f4a7c15ULL);
}

TemplateId
TemplateCatalog::intern(const std::string &service,
                        const std::string &template_text)
{
    std::uint64_t text_hash = hashText(template_text);
    TemplateId id = find(service, template_text, text_hash);
    if (id != kInvalidTemplate)
        return id;
    id = static_cast<TemplateId>(entries.size());
    CS_ASSERT(id != FlatIndex::kNone, "template catalog full");
    entries.push_back({service, template_text});
    index.insert(keyHash(service, text_hash), id);
    return id;
}

TemplateId
TemplateCatalog::find(const std::string &service,
                      const std::string &template_text) const
{
    return find(service, template_text, hashText(template_text));
}

TemplateId
TemplateCatalog::find(std::string_view service,
                      std::string_view template_text,
                      std::uint64_t text_hash) const
{
    TemplateId id = index.find(
        keyHash(service, text_hash), [&](TemplateId candidate) {
            const Entry &entry = entries[candidate];
            return entry.text == template_text && entry.service == service;
        });
    return id == FlatIndex::kNone ? kInvalidTemplate : id;
}

const std::string &
TemplateCatalog::service(TemplateId id) const
{
    CS_ASSERT(id < entries.size(), "template id out of range");
    return entries[id].service;
}

const std::string &
TemplateCatalog::text(TemplateId id) const
{
    CS_ASSERT(id < entries.size(), "template id out of range");
    return entries[id].text;
}

std::string
TemplateCatalog::label(TemplateId id) const
{
    return service(id) + ": " + text(id);
}

} // namespace cloudseer::logging
