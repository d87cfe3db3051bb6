#include "common/time_util.hpp"

#include <climits>
#include <cmath>
#include <cstdint>

#include "common/string_util.hpp"

namespace cloudseer::common {

namespace {

// Synthetic epoch: 2016-01-12 00:00:00 (the paper's era). Only the
// rendering is calendar-shaped; arithmetic stays in plain seconds.
constexpr int kEpochYear = 2016;
constexpr int kEpochMonth = 1;
constexpr int kEpochDay = 12;

constexpr double kSecondsPerDay = 86400.0;

/**
 * printf's "%0<width>d" for a non-negative value (every timestamp
 * field is one). Returns the end of what was written.
 */
char *
putPadded(char *out, long long value, int width)
{
    char digits[20];
    int n = 0;
    do {
        digits[n++] = static_cast<char>('0' + value % 10);
        value /= 10;
    } while (value != 0);
    for (int pad = n; pad < width; ++pad)
        *out++ = '0';
    while (n > 0)
        *out++ = digits[--n];
    return out;
}

/**
 * Reads `head`, one space, then `tail` as a single stream, the way
 * sscanf reads the C string `head + " " + tail`. A NUL byte needs no
 * special case: it matches nothing the parser accepts, so it ends the
 * parse exactly where the C string would have ended.
 */
class JoinedCursor
{
  public:
    JoinedCursor(std::string_view head, std::string_view tail)
        : cur(head.data()), end(head.data() + head.size()), tail(tail)
    {
        settle();
    }

    /** Current byte, or -1 at the end of the stream. */
    int
    peek() const
    {
        return cur != end ? static_cast<unsigned char>(*cur) : -1;
    }

    void
    advance()
    {
        if (++cur == end)
            settle();
    }

    /** Consume `c` if it is next. */
    bool
    literal(char c)
    {
        if (peek() != static_cast<unsigned char>(c))
            return false;
        advance();
        return true;
    }

    /** sscanf's "%d"; false on no digits or a value outside `int`. */
    bool
    integer(int &out)
    {
        while (isAsciiSpace(peek()))
            advance();
        bool negative = false;
        if (peek() == '+' || peek() == '-') {
            negative = peek() == '-';
            advance();
        }
        const std::int64_t limit =
            negative ? -static_cast<std::int64_t>(INT_MIN) : INT_MAX;
        std::int64_t value = 0;
        bool any = false;
        bool overflow = false;
        for (int c = peek(); c >= '0' && c <= '9'; c = peek()) {
            any = true;
            value = value * 10 + (c - '0');
            if (value > limit) {
                overflow = true;
                value = limit;
            }
            advance();
        }
        if (!any || overflow)
            return false;
        out = static_cast<int>(negative ? -value : value);
        return true;
    }

  private:
    static constexpr char kJoin = ' ';

    const char *cur;
    const char *end;
    std::string_view tail;
    int segmentsLeft = 2; ///< the joining space, then `tail`

    /** At the end of a segment, step into the next non-empty one. */
    void
    settle()
    {
        while (cur == end && segmentsLeft > 0) {
            if (segmentsLeft-- == 2) {
                cur = &kJoin;
                end = cur + 1;
            } else {
                cur = tail.data();
                end = cur + tail.size();
            }
        }
    }
};

} // namespace

void
appendTimestamp(SimTime t, std::string &out)
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
    // Days roll the date forward within January for simplicity; runs are
    // far shorter than the remaining days of the month.
    int day = kEpochDay + static_cast<int>(days);
    char buf[48];
    char *end = putPadded(buf, kEpochYear, 4);
    *end++ = '-';
    end = putPadded(end, kEpochMonth, 2);
    *end++ = '-';
    end = putPadded(end, day, 2);
    *end++ = ' ';
    end = putPadded(end, hh, 2);
    *end++ = ':';
    end = putPadded(end, mm, 2);
    *end++ = ':';
    end = putPadded(end, ss, 2);
    *end++ = '.';
    end = putPadded(end, millis, 3);
    out.append(buf, static_cast<std::size_t>(end - buf));
}

std::string
formatTimestamp(SimTime t)
{
    std::string out;
    appendTimestamp(t, out);
    return out;
}

bool
parseTimestamp(std::string_view date, std::string_view time, SimTime &out)
{
    int year = 0, month = 0, day = 0, hh = 0, mm = 0, ss = 0, millis = 0;
    JoinedCursor in(date, time);
    // "%d-%d-%d %d:%d:%d.%d": the space directive is subsumed by the
    // whitespace skip every %d does.
    bool parsed = in.integer(year) && in.literal('-') &&
                  in.integer(month) && in.literal('-') &&
                  in.integer(day) && in.integer(hh) && in.literal(':') &&
                  in.integer(mm) && in.literal(':') && in.integer(ss) &&
                  in.literal('.') && in.integer(millis);
    if (!parsed || year != kEpochYear || month != kEpochMonth ||
        day < kEpochDay) {
        return false;
    }
    out = (day - kEpochDay) * kSecondsPerDay + hh * 3600.0 + mm * 60.0 +
          ss + millis / 1000.0;
    return true;
}

bool
parseTimestamp(const std::string &text, SimTime &out)
{
    // Whitespace after the last field never changes a sscanf outcome,
    // so the joined stream's trailing space is harmless here.
    return parseTimestamp(text, std::string_view(), out);
}

} // namespace cloudseer::common
