/**
 * @file
 * Small string helpers shared by log parsing, table printing, and tests.
 */

#ifndef CLOUDSEER_COMMON_STRING_UTIL_HPP
#define CLOUDSEER_COMMON_STRING_UTIL_HPP

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

namespace cloudseer::common {

/**
 * The six bytes the C locale's isspace() accepts, without a locale
 * call: the wire decoder's token delimiters.
 */
inline bool
isAsciiSpace(int c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/** Split on a single-character delimiter; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char delim);

/** Split on runs of whitespace; empty fields are dropped. */
std::vector<std::string> splitWhitespace(const std::string &s);

/** Join items with the given separator. */
std::string join(const std::vector<std::string> &items,
                 const std::string &sep);

/** Strip leading and trailing whitespace. */
std::string trim(const std::string &s);

/** True iff s starts with the given prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/** True iff s ends with the given suffix. */
bool endsWith(const std::string &s, const std::string &suffix);

/**
 * Fixed-precision decimal formatting: the bytes printf "%.*f" writes
 * in the C locale (for 0 <= precision <= 64), without a locale call.
 */
std::string formatDouble(double value, int precision);

/** formatDouble appended to `out` without a temporary. */
void appendFixed(std::string &out, double value, int precision);

/** An integer in decimal (std::to_string's bytes), appended to `out`. */
template <typename Int>
void
appendInt(std::string &out, Int value)
{
    char buf[24];
    std::to_chars_result end = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, end.ptr);
}

/**
 * Append `raw` as the body of a JSON string: '"' and '\' are
 * backslash-escaped, LF, CR and TAB become \n, \r and \t, every other
 * byte below 0x20 becomes \u00xx, and every other byte (UTF-8
 * included) is copied through in bulk runs. The program's one JSON
 * string escaper.
 */
void appendJsonEscaped(std::string &out, std::string_view raw);

/** appendJsonEscaped into a fresh string (for stream-based writers). */
std::string jsonEscape(std::string_view raw);

/** Format a ratio as a percentage string like "92.08%". */
std::string formatPercent(double ratio, int precision = 2);

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_STRING_UTIL_HPP
