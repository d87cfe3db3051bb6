#include "common/string_util.hpp"

#include <array>
#include <cctype>
#include <cstdint>
#include <cstring>

#include "common/error.hpp"

namespace cloudseer::common {

std::vector<std::string>
split(const std::string &s, char delim)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        std::size_t pos = s.find(delim, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            break;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
    return out;
}

std::vector<std::string>
splitWhitespace(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos < s.size()) {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
        std::size_t start = pos;
        while (pos < s.size() &&
               !std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
        if (pos > start)
            out.push_back(s.substr(start, pos - start));
    }
    return out;
}

std::string
join(const std::vector<std::string> &items, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += sep;
        out += items[i];
    }
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void
appendFixed(std::string &out, double value, int precision)
{
    // 309 integer digits for DBL_MAX, a sign, a point and the
    // fraction: std::to_chars writes printf's bytes, correctly rounded
    // (ties to even on exact halves), "inf"/"nan" with their sign.
    CS_ASSERT(precision >= 0 && precision <= 64,
              "fixed precision out of range");
    char buf[384];
    std::to_chars_result end =
        std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::fixed, precision);
    out.append(buf, end.ptr);
}

std::string
formatDouble(double value, int precision)
{
    std::string out;
    appendFixed(out, value, precision);
    return out;
}

namespace {

/** Bytes a JSON string body cannot carry raw: controls, '"', '\\'. */
constexpr std::array<bool, 256> kJsonEscaped = [] {
    std::array<bool, 256> table{};
    for (int c = 0; c < 0x20; ++c)
        table[c] = true;
    table['"'] = true;
    table['\\'] = true;
    return table;
}();

/**
 * True when one of the eight bytes in `word` is in kJsonEscaped. Each
 * test is the exact "some byte below n" form, (w - n*ones) & ~w & highs:
 * a byte of 0x80 or above never sets its high bit through ~w.
 */
constexpr bool
anyJsonEscaped(std::uint64_t word)
{
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighs = 0x8080808080808080ull;
    const std::uint64_t quote = word ^ (kOnes * '"');
    const std::uint64_t slash = word ^ (kOnes * '\\');
    return (((word - kOnes * 0x20) & ~word) |
            ((quote - kOnes) & ~quote) | ((slash - kOnes) & ~slash)) &
           kHighs;
}

} // namespace

void
appendJsonEscaped(std::string &out, std::string_view raw)
{
    static constexpr char kHex[] = "0123456789abcdef";
    const char *run = raw.data();
    const char *const end = run + raw.size();
    const char *p = run;
    while (p != end) {
        // Skip clean eight-byte words; log lines are mostly clean.
        std::uint64_t word;
        if (end - p >= 8) {
            std::memcpy(&word, p, sizeof(word));
            if (!anyJsonEscaped(word)) {
                p += 8;
                continue;
            }
        }
        unsigned char c = static_cast<unsigned char>(*p++);
        if (!kJsonEscaped[c])
            continue;
        out.append(run, p - 1);
        run = p;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                   kHex[c & 0xf]};
            out.append(escape, sizeof(escape));
          }
        }
    }
    out.append(run, end);
}

std::string
jsonEscape(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size() + 8);
    appendJsonEscaped(out, raw);
    return out;
}

std::string
formatPercent(double ratio, int precision)
{
    return formatDouble(ratio * 100.0, precision) + "%";
}

} // namespace cloudseer::common
