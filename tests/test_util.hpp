/**
 * @file
 * Shared helpers for the test suite: tiny catalogs and hand-built
 * automata over single-letter templates.
 */

#ifndef CLOUDSEER_TESTS_TEST_UTIL_HPP
#define CLOUDSEER_TESTS_TEST_UTIL_HPP

#include <cctype>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/automaton/task_automaton.hpp"
#include "core/checker/check_types.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/template_catalog.hpp"

namespace cloudseer::testutil {

/** Catalog plus name->id map for letter templates ("A", "B", ...). */
struct LetterCatalog
{
    std::shared_ptr<logging::TemplateCatalog> catalog =
        std::make_shared<logging::TemplateCatalog>();
    std::map<std::string, logging::TemplateId> ids;

    /** Intern (or fetch) a letter template under service "svc". */
    logging::TemplateId
    id(const std::string &letter)
    {
        auto it = ids.find(letter);
        if (it != ids.end())
            return it->second;
        logging::TemplateId tpl = catalog->intern("svc", letter);
        ids.emplace(letter, tpl);
        return tpl;
    }
};

/**
 * Build an automaton over letter templates from an edge list like
 * {{"A","B"},{"B","C"}}. Every letter mentioned becomes one event
 * (occurrence 0).
 */
inline core::TaskAutomaton
makeLetterAutomaton(LetterCatalog &letters, const std::string &name,
                    const std::vector<std::string> &nodes,
                    const std::vector<std::pair<std::string,
                                                std::string>> &edges)
{
    std::map<std::string, int> index;
    std::vector<core::EventNode> events;
    for (const std::string &node : nodes) {
        index[node] = static_cast<int>(events.size());
        events.push_back({letters.id(node), 0});
    }
    std::vector<core::DependencyEdge> built;
    for (const auto &[from, to] : edges)
        built.push_back({index.at(from), index.at(to), false});
    return core::TaskAutomaton(name, std::move(events), std::move(built));
}

/** Intern identifier strings the way the monitor does at extraction. */
inline std::vector<logging::IdToken>
internIds(const std::vector<std::string> &identifiers)
{
    std::vector<logging::IdToken> tokens;
    tokens.reserve(identifiers.size());
    for (const std::string &id : identifiers)
        tokens.push_back(logging::IdentifierInterner::process().intern(id));
    return tokens;
}

/** Build a CheckMessage over a letter template with identifiers. */
inline core::CheckMessage
makeMessage(LetterCatalog &letters, const std::string &letter,
            const std::vector<std::string> &identifiers,
            logging::RecordId record, common::SimTime time,
            logging::LogLevel level = logging::LogLevel::Info)
{
    core::CheckMessage message;
    message.tpl = letters.id(letter);
    message.identifiers = internIds(identifiers);
    message.record = record;
    message.time = time;
    message.level = level;
    return message;
}

/**
 * Strict RFC 8259 recogniser: true when `text` is exactly one JSON
 * value (surrounding whitespace allowed). Strings may not carry raw
 * bytes below 0x20, which is what an escaper that passes control
 * bytes through gets wrong.
 */
class StrictJson
{
  public:
    static bool
    valid(const std::string &text)
    {
        StrictJson parser(text);
        parser.space();
        if (!parser.value())
            return false;
        parser.space();
        return parser.at == text.size();
    }

  private:
    explicit StrictJson(const std::string &t) : text(t) {}

    const std::string &text;
    std::size_t at = 0;
    int depth = 0;

    bool more() const { return at < text.size(); }
    char peek() const { return more() ? text[at] : '\0'; }

    void
    space()
    {
        while (more() && (text[at] == ' ' || text[at] == '\t' ||
                          text[at] == '\r' || text[at] == '\n'))
            ++at;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (text.compare(at, n, word) != 0)
            return false;
        at += n;
        return true;
    }

    bool
    digits()
    {
        std::size_t start = at;
        while (more() && text[at] >= '0' && text[at] <= '9')
            ++at;
        return at > start;
    }

    bool
    number()
    {
        if (peek() == '-')
            ++at;
        if (peek() == '0')
            ++at;
        else if (!digits())
            return false;
        if (peek() == '.') {
            ++at;
            if (!digits())
                return false;
        }
        if (peek() == 'e' || peek() == 'E') {
            ++at;
            if (peek() == '+' || peek() == '-')
                ++at;
            if (!digits())
                return false;
        }
        return true;
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++at;
        while (more()) {
            unsigned char c = static_cast<unsigned char>(text[at++]);
            if (c == '"')
                return true;
            if (c < 0x20)
                return false;
            if (c != '\\')
                continue;
            if (!more())
                return false;
            char e = text[at++];
            if (e == 'u') {
                for (int i = 0; i < 4; ++i, ++at) {
                    if (!more() || !std::isxdigit(
                                       static_cast<unsigned char>(text[at])))
                        return false;
                }
            } else if (e == '\0' || std::strchr("\"\\/bfnrt", e) == nullptr) {
                return false;
            }
        }
        return false;
    }

    template <typename Element>
    bool
    sequence(char close, Element element)
    {
        ++at;
        space();
        if (peek() == close) {
            ++at;
            return true;
        }
        while (true) {
            space();
            if (!element())
                return false;
            space();
            if (peek() == close) {
                ++at;
                return true;
            }
            if (peek() != ',')
                return false;
            ++at;
        }
    }

    bool
    value()
    {
        if (++depth > 256)
            return false;
        bool ok = false;
        switch (peek()) {
          case '{':
            ok = sequence('}', [this] {
                if (!string())
                    return false;
                space();
                if (peek() != ':')
                    return false;
                ++at;
                space();
                return value();
            });
            break;
          case '[':
            ok = sequence(']', [this] { return value(); });
            break;
          case '"':
            ok = string();
            break;
          case 't':
            ok = literal("true");
            break;
          case 'f':
            ok = literal("false");
            break;
          case 'n':
            ok = literal("null");
            break;
          default:
            ok = number();
        }
        --depth;
        return ok;
    }
};

} // namespace cloudseer::testutil

#endif // CLOUDSEER_TESTS_TEST_UTIL_HPP
