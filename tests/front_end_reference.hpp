/**
 * @file
 * Frozen reference copies of the wire front end as it stood before the
 * allocation-free rewrite: the sscanf timestamp parser, the snprintf
 * timestamp renderer, the std::isspace tokenising decoder, and the
 * character-at-a-time <cctype> variable extractor.
 *
 * The differential tests in common_test and logging_test hold the
 * production code to these outputs. They are an oracle: do not change
 * them to match new behaviour. The one input on which they are not
 * defined is a timestamp field whose digits run past the range of
 * `int` (undefined behaviour for sscanf); tests keep such inputs out
 * of every differential and pin the production outcome separately.
 */

#ifndef CLOUDSEER_TESTS_FRONT_END_REFERENCE_HPP
#define CLOUDSEER_TESTS_FRONT_END_REFERENCE_HPP

#include <cctype>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>

#include "logging/log_codec.hpp"
#include "logging/variable_extractor.hpp"

namespace reference {

using cloudseer::common::SimTime;
using cloudseer::logging::DecodeFailure;
using cloudseer::logging::LogRecord;
using cloudseer::logging::ParsedBody;
using cloudseer::logging::VariableKind;

constexpr int kEpochYear = 2016;
constexpr int kEpochMonth = 1;
constexpr int kEpochDay = 12;
constexpr double kSecondsPerDay = 86400.0;

inline std::string
formatTimestamp(SimTime t)
{
    if (t < 0)
        t = 0;
    long long whole = static_cast<long long>(std::floor(t));
    int millis = static_cast<int>(std::llround((t - whole) * 1000.0));
    if (millis >= 1000) {
        millis -= 1000;
        ++whole;
    }
    long long days = whole / static_cast<long long>(kSecondsPerDay);
    long long rem = whole % static_cast<long long>(kSecondsPerDay);
    int hh = static_cast<int>(rem / 3600);
    int mm = static_cast<int>((rem % 3600) / 60);
    int ss = static_cast<int>(rem % 60);
    int day = kEpochDay + static_cast<int>(days);
    char buf[48];
    int len = std::snprintf(buf, sizeof(buf),
                            "%04d-%02d-%02d %02d:%02d:%02d.%03d",
                            kEpochYear, kEpochMonth, day, hh, mm, ss,
                            millis);
    return std::string(buf, static_cast<std::size_t>(len));
}

inline bool
parseTimestamp(const std::string &text, SimTime &out)
{
    int year = 0, month = 0, day = 0, hh = 0, mm = 0, ss = 0, millis = 0;
    int n = std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d.%d",
                        &year, &month, &day, &hh, &mm, &ss, &millis);
    if (n != 7 || year != kEpochYear || month != kEpochMonth ||
        day < kEpochDay) {
        return false;
    }
    out = (day - kEpochDay) * kSecondsPerDay + hh * 3600.0 + mm * 60.0 +
          ss + millis / 1000.0;
    return true;
}

inline std::string
takeToken(const std::string &line, std::size_t &pos)
{
    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
    }
    std::size_t start = pos;
    while (pos < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
    }
    return line.substr(start, pos - start);
}

inline std::optional<LogRecord>
decodeLogLine(const std::string &line, DecodeFailure *why)
{
    auto fail = [why](DecodeFailure cause) -> std::optional<LogRecord> {
        *why = cause;
        return std::nullopt;
    };
    *why = DecodeFailure::None;

    std::size_t pos = 0;
    std::string date = takeToken(line, pos);
    std::string time = takeToken(line, pos);
    if (date.empty() || time.empty())
        return fail(DecodeFailure::BadTimestamp);

    LogRecord record;
    if (!parseTimestamp(date + " " + time, record.timestamp))
        return fail(DecodeFailure::BadTimestamp);

    record.node = takeToken(line, pos);
    record.service = takeToken(line, pos);
    std::string level_text = takeToken(line, pos);
    if (record.node.empty())
        return fail(DecodeFailure::BadHeader);
    if (record.service.empty() || level_text.empty())
        return fail(DecodeFailure::TruncatedPayload);
    if (!cloudseer::logging::parseLogLevel(level_text, record.level))
        return fail(DecodeFailure::BadHeader);

    while (pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[pos]))) {
        ++pos;
    }
    record.body = line.substr(pos);
    if (record.body.empty())
        return fail(DecodeFailure::TruncatedPayload);
    return record;
}

inline bool
isHex(char c)
{
    return std::isxdigit(static_cast<unsigned char>(c)) != 0;
}

inline bool
isDigit(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

inline bool
isAlnum(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

inline std::size_t
matchUuid(const std::string &s, std::size_t pos)
{
    static const int groups[5] = {8, 4, 4, 4, 12};
    std::size_t p = pos;
    for (int g = 0; g < 5; ++g) {
        if (g > 0) {
            if (p >= s.size() || s[p] != '-')
                return 0;
            ++p;
        }
        for (int i = 0; i < groups[g]; ++i, ++p) {
            if (p >= s.size() || !isHex(s[p]))
                return 0;
        }
    }
    if (p < s.size() && (isAlnum(s[p]) || s[p] == '-'))
        return 0;
    return p - pos;
}

inline std::size_t
matchIp(const std::string &s, std::size_t pos)
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
        while (p < s.size() && isDigit(s[p]) && digits < 3) {
            value = value * 10 + (s[p] - '0');
            ++p;
            ++digits;
        }
        if (digits == 0 || value > 255)
            return 0;
    }
    if (p < s.size() && (isDigit(s[p]) || s[p] == '.'))
        return 0;
    return p - pos;
}

inline std::size_t
matchNumber(const std::string &s, std::size_t pos)
{
    std::size_t p = pos;
    while (p < s.size() && isDigit(s[p]))
        ++p;
    if (p == pos)
        return 0;
    if (p < s.size() && std::isalpha(static_cast<unsigned char>(s[p])))
        return 0;
    return p - pos;
}

inline const char *
placeholder(VariableKind kind)
{
    switch (kind) {
      case VariableKind::Uuid: return "<uuid>";
      case VariableKind::Ip: return "<ip>";
      case VariableKind::Number: return "<num>";
    }
    return "<var>";
}

inline ParsedBody
parse(const std::string &body)
{
    ParsedBody out;
    out.templateText.reserve(body.size());
    char prev = '\0';
    std::size_t pos = 0;
    while (pos < body.size()) {
        char c = body[pos];
        std::size_t len = 0;
        VariableKind kind = VariableKind::Number;
        if (!isAlnum(prev) && isHex(c)) {
            if ((len = matchUuid(body, pos)) > 0) {
                kind = VariableKind::Uuid;
            } else if (isDigit(c)) {
                if (prev != '.' && (len = matchIp(body, pos)) > 0) {
                    kind = VariableKind::Ip;
                } else if ((len = matchNumber(body, pos)) > 0) {
                    kind = VariableKind::Number;
                }
            }
        }
        if (len > 0) {
            out.templateText += placeholder(kind);
            out.variables.push_back({kind, body.substr(pos, len)});
            pos += len;
            prev = '\0';
        } else {
            out.templateText.push_back(c);
            prev = c;
            ++pos;
        }
    }
    return out;
}

/**
 * True when `text` holds a run of ten or more digits: the only way a
 * timestamp field can leave the range of `int`, where the sscanf
 * reference is undefined.
 */
inline bool
hasIntOverflowRisk(const std::string &text)
{
    int run = 0;
    for (char c : text) {
        run = isDigit(c) ? run + 1 : 0;
        if (run >= 10)
            return true;
    }
    return false;
}

} // namespace reference

#endif // CLOUDSEER_TESTS_FRONT_END_REFERENCE_HPP
