/**
 * @file
 * Serialises log records to text lines and parses them back.
 *
 * Line format (what the Logstash stand-in ships across "nodes"):
 *
 *     2016-01-12 08:30:01.123 compute-1 nova-compute INFO <body...>
 *
 * Ground-truth fields do not survive serialisation — parsing a line
 * yields a record with truthExecution == 0, which is exactly the
 * information barrier the monitor relies on.
 */

#ifndef CLOUDSEER_LOGGING_LOG_CODEC_HPP
#define CLOUDSEER_LOGGING_LOG_CODEC_HPP

#include <optional>
#include <string>

#include "logging/log_record.hpp"

namespace cloudseer::logging {

/** Render a record as one log line (no trailing newline). */
std::string encodeLogLine(const LogRecord &record);

/**
 * Render into a caller-owned buffer (replacing its contents). The
 * monitor's flight-recorder path encodes every delivered record, so
 * reusing one scratch string keeps that path allocation-free once the
 * buffer has warmed up to the longest line seen.
 */
void encodeLogLineTo(const LogRecord &record, std::string &out);

/** Why a line failed to parse (for quarantine accounting). */
enum class DecodeFailure
{
    None,            ///< parsed fine
    BadTimestamp,    ///< leading timestamp missing or unparseable
    BadHeader,       ///< node/service/level fields missing or invalid
    TruncatedPayload ///< header parsed but the body is empty/cut off
};

/** Canonical token ("BAD-TIMESTAMP", ...). */
const char *decodeFailureName(DecodeFailure cause);

/**
 * Parse one log line.
 *
 * Tokens are split on the C locale's six ASCII whitespace bytes and the
 * timestamp follows common::parseTimestamp, so the accepted language
 * is exactly that of the original sscanf/isspace decoder. Only the
 * returned record's strings are allocated.
 *
 * @param line The text line.
 * @param why  When non-null, receives the failure cause (None on
 *             success).
 * @return The parsed record, or nullopt if the line is malformed.
 */
std::optional<LogRecord> decodeLogLine(const std::string &line,
                                       DecodeFailure *why = nullptr);

} // namespace cloudseer::logging

#endif // CLOUDSEER_LOGGING_LOG_CODEC_HPP
