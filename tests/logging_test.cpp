/**
 * @file
 * Unit tests for the logging substrate: variable extraction, template
 * interning, and log-line (de)serialisation.
 */

#include <gtest/gtest.h>

#include <climits>
#include <map>

#include "collect/stream_perturber.hpp"
#include "common/rng.hpp"
#include "eval/accuracy_harness.hpp"
#include "front_end_reference.hpp"
#include "logging/flat_index.hpp"
#include "logging/log_codec.hpp"
#include "logging/template_catalog.hpp"
#include "logging/variable_extractor.hpp"

using namespace cloudseer::logging;
using cloudseer::common::Rng;

namespace {

const VariableExtractor kExtractor;

/** Encoded simulator lines plus a few hand-made edge shapes. */
std::vector<std::string>
baseLines()
{
    cloudseer::eval::DatasetConfig config;
    config.users = 2;
    config.tasksPerUser = 4;
    config.seed = 5;
    std::vector<std::string> lines;
    for (const LogRecord &record :
         cloudseer::eval::generateDataset(config).stream) {
        lines.push_back(encodeLogLine(record));
    }
    LogRecord record;
    record.timestamp = 86400.0 * 3 + 59.9995; // millisecond carry, day 15
    record.node = "compute-2";
    record.service = "neutron-server";
    record.level = LogLevel::Critical;
    record.body = "port 10.0.0.255 on 1.2.3.4.5 v2 eth0 300.1.1.1 "
                  "x.1.2.3.4 ABCDEF01-2345-6789-abcd-ef0123456789-tail "
                  "0007";
    lines.push_back(encodeLogLine(record));
    return lines;
}

std::size_t
pick(Rng &rng, std::size_t size)
{
    return size == 0 ? 0
                     : static_cast<std::size_t>(
                           rng.uniformInt(0, static_cast<int>(size) - 1));
}

/** Index of a random digit in the first `limit` bytes, or npos. */
std::size_t
pickDigit(Rng &rng, const std::string &line, std::size_t limit)
{
    std::vector<std::size_t> digits;
    for (std::size_t i = 0; i < std::min(limit, line.size()); ++i) {
        if (line[i] >= '0' && line[i] <= '9')
            digits.push_back(i);
    }
    return digits.empty() ? std::string::npos
                          : digits[pick(rng, digits.size())];
}

/**
 * The mutation corpus: every base line, each with bit flips,
 * truncations, inserted whitespace, signs, leading zeros and non-ASCII
 * bytes, plus the same stream through a StreamPerturber that truncates
 * and corrupts lines. Mutations favour the header (first 48 bytes),
 * where the decoder's language lives.
 */
std::vector<std::string>
mutationCorpus()
{
    static const std::string kSpaces = " \t\n\v\f\r";
    const std::vector<std::string> base = baseLines();
    Rng rng(20261017);
    std::vector<std::string> corpus;
    for (const std::string &line : base) {
        corpus.push_back(line);
        auto spot = [&](bool header) {
            return pick(rng, header ? std::min<std::size_t>(48, line.size())
                                    : line.size());
        };
        for (int i = 0; i < 4; ++i) { // bit flips
            std::string m = line;
            int flips = rng.uniformInt(1, 3);
            for (int f = 0; f < flips; ++f) {
                m[spot(i % 2 == 0)] ^=
                    static_cast<char>(1 << rng.uniformInt(0, 7));
            }
            corpus.push_back(m);
        }
        for (int i = 0; i < 2; ++i) // truncations
            corpus.push_back(line.substr(0, spot(i == 0)));
        for (int i = 0; i < 3; ++i) { // inserted whitespace runs
            std::string m = line;
            std::string run;
            for (int k = rng.uniformInt(1, 3); k > 0; --k)
                run += kSpaces[pick(rng, kSpaces.size())];
            m.insert(spot(i < 2), run);
            corpus.push_back(m);
        }
        // Signs: before a digit, or in place of a separator.
        for (int i = 0; i < 3; ++i) {
            std::string m = line;
            char sign = rng.chance(0.5) ? '+' : '-';
            std::size_t at = pickDigit(rng, m, 24);
            if (at == std::string::npos)
                continue;
            if (i == 2 && at > 0 && !(m[at - 1] >= '0' && m[at - 1] <= '9'))
                m[at - 1] = sign;
            else
                m.insert(at, 1, sign);
            corpus.push_back(m);
        }
        for (int i = 0; i < 2; ++i) { // leading zeros
            std::string m = line;
            std::size_t at = pickDigit(rng, m, 24);
            if (at == std::string::npos)
                continue;
            while (at > 0 && m[at - 1] >= '0' && m[at - 1] <= '9')
                --at;
            m.insert(at, static_cast<std::size_t>(rng.uniformInt(1, 4)),
                     '0');
            corpus.push_back(m);
        }
        for (int i = 0; i < 3; ++i) { // non-ASCII and NUL bytes
            std::string m = line;
            char byte =
                i == 2 ? '\0'
                       : static_cast<char>(rng.uniformInt(0x80, 0xff));
            if (rng.chance(0.5) && !m.empty())
                m[spot(i != 1)] = byte;
            else
                m.insert(spot(i != 1), 1, byte);
            corpus.push_back(m);
        }
    }

    std::vector<LogRecord> records;
    for (const std::string &line : base) {
        if (auto record = decodeLogLine(line))
            records.push_back(*record);
    }
    cloudseer::collect::PerturbationConfig config;
    config.truncateProbability = 0.3;
    config.corruptProbability = 0.3;
    config.seed = 11;
    for (std::string &line :
         cloudseer::collect::StreamPerturber(config).apply(records).lines)
        corpus.push_back(std::move(line));
    return corpus;
}

/** The timestamp text the reference decoder hands to sscanf. */
std::string
referenceTimestampText(const std::string &line)
{
    std::size_t pos = 0;
    std::string date = reference::takeToken(line, pos);
    return date + " " + reference::takeToken(line, pos);
}

void
expectSameParse(const std::string &body)
{
    ParsedBody want = reference::parse(body);
    ParsedBody got = kExtractor.parse(body);
    EXPECT_EQ(got.templateText, want.templateText) << body;
    EXPECT_EQ(got.variables, want.variables) << body;

    std::string templ = "stale";
    std::vector<VariableRef> vars(3);
    std::uint64_t hash = kExtractor.scan(body, templ, vars);
    EXPECT_EQ(templ, want.templateText) << body;
    EXPECT_EQ(hash, hashText(want.templateText)) << body;
    ASSERT_EQ(vars.size(), want.variables.size()) << body;
    for (std::size_t i = 0; i < vars.size(); ++i) {
        EXPECT_EQ(vars[i].kind, want.variables[i].kind) << body;
        EXPECT_EQ(vars[i].text, want.variables[i].text) << body;
    }
}

} // namespace

TEST(LogLevel, NamesRoundTrip)
{
    for (LogLevel level : {LogLevel::Debug, LogLevel::Info,
                           LogLevel::Warning, LogLevel::Error,
                           LogLevel::Critical}) {
        LogLevel parsed;
        ASSERT_TRUE(parseLogLevel(logLevelName(level), parsed));
        EXPECT_EQ(parsed, level);
    }
    LogLevel out;
    EXPECT_FALSE(parseLogLevel("TRACE", out));
    EXPECT_FALSE(parseLogLevel("info", out)); // case-sensitive
}

TEST(LogLevel, ErrorClassification)
{
    EXPECT_TRUE(isErrorLevel(LogLevel::Error));
    EXPECT_TRUE(isErrorLevel(LogLevel::Critical));
    EXPECT_FALSE(isErrorLevel(LogLevel::Warning));
    EXPECT_FALSE(isErrorLevel(LogLevel::Info));
}

TEST(VariableExtractor, ExtractsUuid)
{
    ParsedBody parsed = kExtractor.parse(
        "Scheduling instance 01234567-89ab-cdef-0123-456789abcdef");
    EXPECT_EQ(parsed.templateText, "Scheduling instance <uuid>");
    ASSERT_EQ(parsed.variables.size(), 1u);
    EXPECT_EQ(parsed.variables[0].kind, VariableKind::Uuid);
    EXPECT_EQ(parsed.variables[0].text,
              "01234567-89ab-cdef-0123-456789abcdef");
}

TEST(VariableExtractor, ExtractsIp)
{
    ParsedBody parsed = kExtractor.parse("accepted 10.0.12.34");
    EXPECT_EQ(parsed.templateText, "accepted <ip>");
    ASSERT_EQ(parsed.variables.size(), 1u);
    EXPECT_EQ(parsed.variables[0].kind, VariableKind::Ip);
}

TEST(VariableExtractor, ExtractsNumber)
{
    ParsedBody parsed = kExtractor.parse("status: 202 len: 1748");
    EXPECT_EQ(parsed.templateText, "status: <num> len: <num>");
    ASSERT_EQ(parsed.variables.size(), 2u);
    EXPECT_EQ(parsed.variables[0].text, "202");
    EXPECT_EQ(parsed.variables[1].text, "1748");
}

TEST(VariableExtractor, MixedRealisticLine)
{
    ParsedBody parsed = kExtractor.parse(
        "[req-11111111-2222-3333-4444-555555555555] 10.1.2.3 "
        "\"POST /v2/aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeeee/servers "
        "HTTP/1.1\" status: 202");
    EXPECT_EQ(parsed.templateText,
              "[req-<uuid>] <ip> \"POST /v2/<uuid>/servers "
              "HTTP/<num>.<num>\" status: <num>");
    // req UUID, client IP, tenant UUID, "1", "1", "202".
    ASSERT_EQ(parsed.variables.size(), 6u);
    EXPECT_EQ(parsed.variables[0].kind, VariableKind::Uuid);
    EXPECT_EQ(parsed.variables[1].kind, VariableKind::Ip);
    EXPECT_EQ(parsed.variables[2].kind, VariableKind::Uuid);
    EXPECT_EQ(parsed.variables[5].text, "202");
}

TEST(VariableExtractor, KeepsWordGluedDigits)
{
    ParsedBody parsed = kExtractor.parse("GET /v2/servers on eth0");
    EXPECT_EQ(parsed.templateText, "GET /v2/servers on eth0");
    EXPECT_TRUE(parsed.variables.empty());
}

TEST(VariableExtractor, HexWordIsNotUuid)
{
    ParsedBody parsed = kExtractor.parse("cafe babe feed");
    EXPECT_EQ(parsed.templateText, "cafe babe feed");
    EXPECT_TRUE(parsed.variables.empty());
}

TEST(VariableExtractor, FiveOctetsIsNotIp)
{
    ParsedBody parsed = kExtractor.parse("path 1.2.3.4.5 end");
    // Falls back to numbers; no IP variable extracted.
    for (const Variable &var : parsed.variables)
        EXPECT_NE(var.kind, VariableKind::Ip);
}

TEST(VariableExtractor, OctetOver255IsNotIp)
{
    ParsedBody parsed = kExtractor.parse("addr 300.1.1.1");
    for (const Variable &var : parsed.variables)
        EXPECT_NE(var.kind, VariableKind::Ip);
}

TEST(VariableExtractor, UuidTailNotReparsed)
{
    // The trailing 12-hex group must not surface as separate numbers.
    ParsedBody parsed = kExtractor.parse(
        "id 01234567-89ab-cdef-0123-456789abcdef end");
    ASSERT_EQ(parsed.variables.size(), 1u);
    EXPECT_EQ(parsed.variables[0].kind, VariableKind::Uuid);
}

TEST(VariableExtractor, IdenticalTemplatesForDifferentValues)
{
    ParsedBody a = kExtractor.parse("Starting instance "
        "01234567-89ab-cdef-0123-456789abcdef");
    ParsedBody b = kExtractor.parse("Starting instance "
        "fedcba98-7654-3210-fedc-ba9876543210");
    EXPECT_EQ(a.templateText, b.templateText);
}

TEST(VariableExtractor, IdentifierExtractionSkipsNumbers)
{
    std::string body = "10.1.2.3 did 42 things to "
                       "01234567-89ab-cdef-0123-456789abcdef";
    auto ids = kExtractor.extractIdentifiers(body);
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], "10.1.2.3");
    auto with_numbers = kExtractor.extractIdentifiers(body, true);
    EXPECT_EQ(with_numbers.size(), 3u);
}

TEST(VariableExtractor, EmptyBody)
{
    ParsedBody parsed = kExtractor.parse("");
    EXPECT_EQ(parsed.templateText, "");
    EXPECT_TRUE(parsed.variables.empty());
}

TEST(TemplateCatalog, InternIsIdempotent)
{
    TemplateCatalog catalog;
    TemplateId a = catalog.intern("nova-api", "Accepted <ip>");
    TemplateId b = catalog.intern("nova-api", "Accepted <ip>");
    EXPECT_EQ(a, b);
    EXPECT_EQ(catalog.size(), 1u);
}

TEST(TemplateCatalog, ServiceDisambiguates)
{
    TemplateCatalog catalog;
    TemplateId a = catalog.intern("nova-api", "same text");
    TemplateId b = catalog.intern("keystone", "same text");
    EXPECT_NE(a, b);
    EXPECT_EQ(catalog.service(a), "nova-api");
    EXPECT_EQ(catalog.service(b), "keystone");
}

TEST(TemplateCatalog, FindWithoutIntern)
{
    TemplateCatalog catalog;
    EXPECT_EQ(catalog.find("svc", "missing"), kInvalidTemplate);
    TemplateId a = catalog.intern("svc", "present");
    EXPECT_EQ(catalog.find("svc", "present"), a);
}

TEST(TemplateCatalog, LabelFormat)
{
    TemplateCatalog catalog;
    TemplateId a = catalog.intern("glance", "GET <uuid>");
    EXPECT_EQ(catalog.label(a), "glance: GET <uuid>");
    EXPECT_EQ(catalog.text(a), "GET <uuid>");
}

TEST(LogCodec, RoundTrip)
{
    LogRecord record;
    record.id = 7;
    record.timestamp = 3661.25;
    record.node = "compute-2";
    record.service = "nova-compute";
    record.level = LogLevel::Info;
    record.body = "Starting instance "
                  "01234567-89ab-cdef-0123-456789abcdef";
    record.truthExecution = 99;
    record.truthTask = "boot";

    std::string line = encodeLogLine(record);
    auto decoded = decodeLogLine(line);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_NEAR(decoded->timestamp, record.timestamp, 0.0015);
    EXPECT_EQ(decoded->node, record.node);
    EXPECT_EQ(decoded->service, record.service);
    EXPECT_EQ(decoded->level, record.level);
    EXPECT_EQ(decoded->body, record.body);
}

TEST(LogCodec, GroundTruthDoesNotSurviveTheWire)
{
    LogRecord record;
    record.timestamp = 1.0;
    record.node = "controller";
    record.service = "nova-api";
    record.level = LogLevel::Error;
    record.body = "boom";
    record.truthExecution = 123;
    record.truthTask = "boot";

    auto decoded = decodeLogLine(encodeLogLine(record));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->truthExecution, 0u);
    EXPECT_TRUE(decoded->truthTask.empty());
}

TEST(LogCodec, RejectsMalformedLines)
{
    EXPECT_FALSE(decodeLogLine("").has_value());
    EXPECT_FALSE(decodeLogLine("garbage").has_value());
    EXPECT_FALSE(decodeLogLine("2016-01-12 00:00:00.000 node").has_value());
    EXPECT_FALSE(
        decodeLogLine("2016-01-12 00:00:00.000 node svc NOPE body")
            .has_value());
    // Missing body.
    EXPECT_FALSE(
        decodeLogLine("2016-01-12 00:00:00.000 node svc INFO")
            .has_value());
}

TEST(LogCodec, BodyMayContainExtraSpaces)
{
    auto decoded = decodeLogLine(
        "2016-01-12 00:00:01.000 controller nova-api INFO a  b   c");
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->body, "a  b   c");
}

TEST(LogCodec, DecodeMatchesSscanfReferenceOnMutationCorpus)
{
    std::vector<std::string> corpus = mutationCorpus();
    std::map<DecodeFailure, std::size_t> outcomes;
    std::size_t compared = 0;
    for (const std::string &line : corpus) {
        if (reference::hasIntOverflowRisk(referenceTimestampText(line)))
            continue; // undefined for sscanf; see the test below
        DecodeFailure want_why = DecodeFailure::BadHeader;
        DecodeFailure got_why = DecodeFailure::BadHeader;
        std::optional<LogRecord> want =
            reference::decodeLogLine(line, &want_why);
        std::optional<LogRecord> got = decodeLogLine(line, &got_why);
        ++compared;
        ++outcomes[want_why];
        ASSERT_EQ(got_why, want_why) << line;
        ASSERT_EQ(got.has_value(), want.has_value()) << line;
        if (!want)
            continue;
        EXPECT_EQ(got->timestamp, want->timestamp) << line;
        EXPECT_EQ(got->node, want->node) << line;
        EXPECT_EQ(got->service, want->service) << line;
        EXPECT_EQ(got->level, want->level) << line;
        EXPECT_EQ(got->body, want->body) << line;
    }
    // The corpus is only worth something if it reaches every outcome.
    EXPECT_GT(compared, 2000u);
    for (DecodeFailure cause :
         {DecodeFailure::None, DecodeFailure::BadTimestamp,
          DecodeFailure::BadHeader, DecodeFailure::TruncatedPayload}) {
        EXPECT_GT(outcomes[cause], 20u) << decodeFailureName(cause);
    }
}

TEST(VariableExtractor, ScanMatchesCharByCharReferenceOnMutationCorpus)
{
    for (const std::string &line : mutationCorpus()) {
        // Whole lines are bodies too: they put digits, dots, signs and
        // high bytes where the extractor's boundaries are decided.
        expectSameParse(line);
        DecodeFailure why;
        if (std::optional<LogRecord> record =
                reference::decodeLogLine(line, &why)) {
            expectSameParse(record->body);
        }
    }
    for (const char *body :
         {"", "1", "1.2.3.4", "1.2.3.4.", ".1.2.3.4", "1.2.3.4a",
          "a1.2.3.4", "01234567-89ab-cdef-0123-456789abcdef",
          "01234567-89ab-cdef-0123-456789abcdef-",
          "01234567-89ab-cdef-0123-456789abcdefg", "x-1", "9z 9 z9",
          "255.255.255.255 256.1.1.1 1.1.1 1..1.1", "12345678-1234"}) {
        expectSameParse(body);
    }
}

TEST(LogCodec, TimestampFieldPastIntRangeIsBadTimestamp)
{
    // sscanf's %d is undefined past int; the decoder rejects instead.
    const std::string tail = " node svc INFO body";
    for (const char *stamp :
         {"2016-01-12 00:00:00.2147483648",
          "2016-01-12 00:00:00.-2147483649",
          "2016-01-12 99999999999:00:00.000",
          "99999999999999999999999-01-12 00:00:00.000",
          "2016-01-4294967308 00:00:00.000"}) {
        DecodeFailure why = DecodeFailure::None;
        EXPECT_FALSE(decodeLogLine(stamp + tail, &why).has_value())
            << stamp;
        EXPECT_EQ(why, DecodeFailure::BadTimestamp) << stamp;
    }
    // The range itself, and leading zeros however many, are accepted.
    std::optional<LogRecord> edge =
        decodeLogLine("2016-01-12 00:00:00.2147483647" + tail);
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(edge->timestamp, 2147483647 / 1000.0);
    edge = decodeLogLine("2016-01-12 00:00:00.-2147483648" + tail);
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(edge->timestamp, INT_MIN / 1000.0);
    edge = decodeLogLine("0000000000000000002016-01-12 00:00:01.000" +
                         tail);
    ASSERT_TRUE(edge.has_value());
    EXPECT_EQ(edge->timestamp, 1.0);
}

TEST(TemplateCatalog, HashedFindAgreesWithFind)
{
    TemplateCatalog catalog;
    std::vector<TemplateId> ids;
    for (int i = 0; i < 200; ++i) {
        ids.push_back(catalog.intern(i % 2 ? "nova-api" : "glance",
                                     "step <num> of " + std::to_string(i)));
    }
    for (int i = 0; i < 200; ++i) {
        std::string text = "step <num> of " + std::to_string(i);
        std::string service = i % 2 ? "nova-api" : "glance";
        EXPECT_EQ(catalog.find(service, text, hashText(text)), ids[i]);
        EXPECT_EQ(catalog.find(service, text), ids[i]);
        std::string other = i % 2 ? "glance" : "nova-api";
        EXPECT_EQ(catalog.find(other, text, hashText(text)),
                  kInvalidTemplate);
    }
    EXPECT_EQ(catalog.size(), 200u);
}
