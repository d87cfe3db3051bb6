#include "logging/log_codec.hpp"

#include <string_view>

#include "common/string_util.hpp"
#include "common/time_util.hpp"

namespace cloudseer::logging {

namespace {

bool
spaceAt(std::string_view line, std::size_t pos)
{
    return common::isAsciiSpace(static_cast<unsigned char>(line[pos]));
}

/** Skip whitespace at `pos`. */
void
skipSpace(std::string_view line, std::size_t &pos)
{
    while (pos < line.size() && spaceAt(line, pos))
        ++pos;
}

/** Advance past one whitespace-delimited token; returns the token. */
std::string_view
takeToken(std::string_view line, std::size_t &pos)
{
    skipSpace(line, pos);
    std::size_t start = pos;
    while (pos < line.size() && !spaceAt(line, pos))
        ++pos;
    return line.substr(start, pos - start);
}

/** decodeLogLine's work, into a record the caller owns. */
DecodeFailure
decodeInto(std::string_view line, LogRecord &record)
{
    std::size_t pos = 0;
    std::string_view date = takeToken(line, pos);
    std::string_view time = takeToken(line, pos);
    if (date.empty() || time.empty())
        return DecodeFailure::BadTimestamp;
    if (!common::parseTimestamp(date, time, record.timestamp))
        return DecodeFailure::BadTimestamp;

    std::string_view node = takeToken(line, pos);
    std::string_view service = takeToken(line, pos);
    std::string_view level_text = takeToken(line, pos);
    if (node.empty())
        return DecodeFailure::BadHeader;
    if (service.empty() || level_text.empty()) {
        // A well-formed timestamp with the tail cut off mid-header is
        // a truncation artefact, not a malformed header.
        return DecodeFailure::TruncatedPayload;
    }
    if (!parseLogLevel(level_text, record.level))
        return DecodeFailure::BadHeader;

    skipSpace(line, pos);
    if (pos == line.size())
        return DecodeFailure::TruncatedPayload;
    record.node = node;
    record.service = service;
    record.body = line.substr(pos);
    return DecodeFailure::None;
}

} // namespace

void
encodeLogLineTo(const LogRecord &record, std::string &out)
{
    out.clear();
    common::appendTimestamp(record.timestamp, out);
    out += ' ';
    out += record.node;
    out += ' ';
    out += record.service;
    out += ' ';
    out += logLevelName(record.level);
    out += ' ';
    out += record.body;
}

std::string
encodeLogLine(const LogRecord &record)
{
    std::string out;
    encodeLogLineTo(record, out);
    return out;
}

const char *
decodeFailureName(DecodeFailure cause)
{
    switch (cause) {
      case DecodeFailure::None: return "NONE";
      case DecodeFailure::BadTimestamp: return "BAD-TIMESTAMP";
      case DecodeFailure::BadHeader: return "BAD-HEADER";
      case DecodeFailure::TruncatedPayload: return "TRUNCATED-PAYLOAD";
    }
    return "UNKNOWN";
}

std::optional<LogRecord>
decodeLogLine(const std::string &line, DecodeFailure *why)
{
    // Decoded in place: the one return lets the optional be built
    // directly in the caller's storage.
    std::optional<LogRecord> out;
    DecodeFailure cause = decodeInto(line, out.emplace());
    if (why != nullptr)
        *why = cause;
    if (cause != DecodeFailure::None)
        out.reset();
    return out;
}

} // namespace cloudseer::logging
