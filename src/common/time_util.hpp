/**
 * @file
 * Simulated-time formatting and parsing.
 *
 * Simulation time is a double counting seconds from an arbitrary epoch.
 * Log lines render it OpenStack-style ("2016-01-12 08:30:01.123"); the
 * collector parses it back. A fixed synthetic epoch keeps output stable.
 */

#ifndef CLOUDSEER_COMMON_TIME_UTIL_HPP
#define CLOUDSEER_COMMON_TIME_UTIL_HPP

#include <string>
#include <string_view>

namespace cloudseer::common {

/** Seconds-from-epoch type used throughout the simulator and checker. */
using SimTime = double;

/** Render seconds-from-epoch as "YYYY-MM-DD HH:MM:SS.mmm". */
std::string formatTimestamp(SimTime t);

/** Append formatTimestamp(t) to `out` without a temporary string. */
void appendTimestamp(SimTime t, std::string &out);

/**
 * Parse a "YYYY-MM-DD HH:MM:SS.mmm" timestamp back to seconds-from-epoch.
 *
 * Accepts exactly the language of sscanf's "%d-%d-%d %d:%d:%d.%d" in
 * the C locale: each field may carry leading ASCII whitespace, a sign
 * and leading zeros, text after the seventh field is ignored, and a
 * NUL byte ends the input. A field whose digits run past the range of
 * `int` (undefined behaviour for sscanf) is rejected.
 *
 * @param date      The date token; read as if followed by one space
 *                  and then `time`.
 * @param time      The time-of-day token.
 * @param out       Receives the parsed value on success.
 * @retval true     if the text was a well-formed timestamp.
 */
bool parseTimestamp(std::string_view date, std::string_view time,
                    SimTime &out);

/** parseTimestamp over one string holding the whole timestamp. */
bool parseTimestamp(const std::string &text, SimTime &out);

} // namespace cloudseer::common

#endif // CLOUDSEER_COMMON_TIME_UTIL_HPP
