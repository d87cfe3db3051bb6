#include "logging/variable_extractor.hpp"

#include <array>

#include "logging/flat_index.hpp"

namespace cloudseer::logging {

namespace {

// Character classes, as the C locale's isdigit/isalpha/isxdigit see
// bytes: ASCII only, nothing at or above 0x80.
constexpr std::uint8_t kDigit = 1;
constexpr std::uint8_t kAlpha = 2;
constexpr std::uint8_t kHexLetter = 4;
constexpr std::uint8_t kAlnum = kDigit | kAlpha;
constexpr std::uint8_t kHex = kDigit | kHexLetter;

constexpr std::array<std::uint8_t, 256>
buildClassTable()
{
    std::array<std::uint8_t, 256> table{};
    for (int c = '0'; c <= '9'; ++c)
        table[c] = kDigit;
    for (int c = 'a'; c <= 'z'; ++c) {
        table[c] = kAlpha;
        table[c - 'a' + 'A'] = kAlpha;
    }
    for (int c = 'a'; c <= 'f'; ++c) {
        table[c] |= kHexLetter;
        table[c - 'a' + 'A'] |= kHexLetter;
    }
    return table;
}

constexpr std::array<std::uint8_t, 256> kClass = buildClassTable();

std::uint8_t
classOf(char c)
{
    return kClass[static_cast<unsigned char>(c)];
}

/** True when s[p] exists and is in any of `classes`. */
bool
at(std::string_view s, std::size_t p, std::uint8_t classes)
{
    return p < s.size() && (classOf(s[p]) & classes) != 0;
}

constexpr std::string_view kPlaceholders[] = {"<uuid>", "<ip>", "<num>"};

/**
 * Try to match a UUID (8-4-4-4-12 lower/upper hex) at position pos.
 *
 * @return Length of the match (36) or 0.
 */
std::size_t
matchUuid(std::string_view s, std::size_t pos)
{
    constexpr std::size_t kLength = 36;
    if (s.size() - pos < kLength)
        return 0;
    const char *p = s.data() + pos;
    if (p[8] != '-' || p[13] != '-' || p[18] != '-' || p[23] != '-')
        return 0;
    for (std::size_t i = 0; i < kLength; ++i) {
        if (!(classOf(p[i]) & kHex) && i != 8 && i != 13 && i != 18 &&
            i != 23)
            return 0;
    }
    // Trailing boundary: not followed by another identifier character.
    std::size_t end = pos + kLength;
    if (at(s, end, kAlnum) || (end < s.size() && s[end] == '-'))
        return 0;
    return kLength;
}

/**
 * Try to match an IPv4 dotted quad at position pos (octets <= 255).
 *
 * @return Length of the match or 0.
 */
std::size_t
matchIp(std::string_view s, std::size_t pos)
{
    std::size_t p = pos;
    for (int octet = 0; octet < 4; ++octet) {
        if (octet > 0) {
            if (p >= s.size() || s[p] != '.')
                return 0;
            ++p;
        }
        int value = 0;
        std::size_t digits = 0;
        while (digits < 3 && at(s, p, kDigit)) {
            value = value * 10 + (s[p] - '0');
            ++p;
            ++digits;
        }
        if (digits == 0 || value > 255)
            return 0;
    }
    // Must not continue into more digits/dots ("1.2.3.4.5" is not an IP).
    if (at(s, p, kDigit) || (p < s.size() && s[p] == '.'))
        return 0;
    return p - pos;
}

/**
 * Try to match a bare number at position pos.
 *
 * @return Length of the match or 0.
 */
std::size_t
matchNumber(std::string_view s, std::size_t pos)
{
    std::size_t p = pos;
    while (at(s, p, kDigit))
        ++p;
    // Numbers glued to letters ("v2", "eth0") are part of a word, not a
    // variable; keep them in the template text.
    if (at(s, p, kAlpha))
        return 0;
    return p - pos;
}

} // namespace

const char *
VariableExtractor::placeholder(VariableKind kind)
{
    return kPlaceholders[static_cast<int>(kind)].data();
}

std::uint64_t
VariableExtractor::scan(std::string_view body, std::string &templ,
                        std::vector<VariableRef> &vars) const
{
    templ.clear();
    vars.clear();
    const std::size_t n = body.size();
    std::size_t literal = 0; // start of the pending literal run
    std::size_t pos = 0;
    while (pos < n) {
        // A variable starts only at a word start: an alphanumeric byte
        // after a non-alphanumeric one, a variable, or the body start.
        while (pos < n && !(classOf(body[pos]) & kAlnum))
            ++pos;
        if (pos == n)
            break;
        const std::uint8_t cls = classOf(body[pos]);
        std::size_t len = 0;
        VariableKind kind = VariableKind::Uuid;
        if (cls & kHex)
            len = matchUuid(body, pos);
        if (len == 0 && (cls & kDigit)) {
            // A dotted quad preceded by '.' is the tail of a longer
            // dotted sequence ("1.2.3.4.5"), not an address.
            bool after_dot = pos > 0 && body[pos - 1] == '.';
            kind = VariableKind::Ip;
            if (after_dot || (len = matchIp(body, pos)) == 0) {
                kind = VariableKind::Number;
                len = matchNumber(body, pos);
            }
        }
        if (len == 0) {
            // Not a variable: the rest of the word is literal too.
            while (pos < n && (classOf(body[pos]) & kAlnum))
                ++pos;
            continue;
        }
        templ.append(body, literal, pos - literal);
        templ.append(kPlaceholders[static_cast<int>(kind)]);
        vars.push_back({kind, body.substr(pos, len)});
        pos += len;
        literal = pos;
    }
    templ.append(body, literal);
    return hashText(templ);
}

ParsedBody
VariableExtractor::parse(const std::string &body) const
{
    ParsedBody out;
    std::vector<VariableRef> refs;
    scan(body, out.templateText, refs);
    out.variables.reserve(refs.size());
    for (const VariableRef &ref : refs)
        out.variables.push_back({ref.kind, std::string(ref.text)});
    return out;
}

std::vector<std::string>
VariableExtractor::extractIdentifiers(const std::string &body,
                                      bool include_numbers) const
{
    std::string templ;
    std::vector<VariableRef> refs;
    scan(body, templ, refs);
    std::vector<std::string> out;
    for (const VariableRef &ref : refs) {
        if (ref.kind == VariableKind::Number && !include_numbers)
            continue;
        out.emplace_back(ref.text);
    }
    return out;
}

} // namespace cloudseer::logging
