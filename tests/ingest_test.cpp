/**
 * @file
 * Tests for the hardened monitor ingest pipeline: malformed-line
 * quarantine, the non-monotonic timestamp guard, near-duplicate
 * suppression, the reorder buffer, group-cap shedding, and the
 * bit-identical pass-through guarantee of the default configuration.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "core/monitor/report_json.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "logging/log_codec.hpp"

using namespace cloudseer;
using namespace cloudseer::core;

namespace {

/** Fixture over the two-step ping/pong workflow from monitor_test. */
class IngestTest : public ::testing::Test
{
  protected:
    std::shared_ptr<logging::TemplateCatalog> catalog =
        std::make_shared<logging::TemplateCatalog>();
    logging::RecordId nextRecord = 1;

    std::unique_ptr<WorkflowMonitor>
    makeMonitor(const IngestConfig &ingest,
                double timeout_seconds = 10.0)
    {
        MonitorConfig config;
        config.timeoutSeconds = timeout_seconds;
        config.ingest = ingest;
        return std::make_unique<WorkflowMonitor>(config, catalog,
                                                 automata());
    }

    std::vector<TaskAutomaton>
    automata()
    {
        logging::TemplateId ping = catalog->intern("svc-a",
                                                   "ping <uuid>");
        logging::TemplateId pong = catalog->intern("svc-b",
                                                   "pong <uuid>");
        std::vector<EventNode> events = {{ping, 0}, {pong, 0}};
        std::vector<DependencyEdge> edges = {{0, 1, true}};
        std::vector<TaskAutomaton> out;
        out.emplace_back("ping-pong", std::move(events),
                         std::move(edges));
        return out;
    }

    logging::LogRecord
    record(const std::string &service, const std::string &body,
           double t, logging::LogLevel level = logging::LogLevel::Info)
    {
        logging::LogRecord out;
        out.id = nextRecord++;
        out.timestamp = t;
        out.node = "controller";
        out.service = service;
        out.level = level;
        out.body = body;
        return out;
    }

    static std::string
    uuid(int which)
    {
        char buf[37];
        std::snprintf(buf, sizeof buf,
                      "%08d-1111-2222-3333-444444444444", which);
        return buf;
    }

    logging::LogRecord
    ping(int which, double t)
    {
        return record("svc-a", "ping " + uuid(which), t);
    }

    logging::LogRecord
    pong(int which, double t)
    {
        return record("svc-b", "pong " + uuid(which), t);
    }
};

} // namespace

// --- Malformed-line quarantine ------------------------------------

TEST_F(IngestTest, MalformedLinesAreCountedByCause)
{
    auto monitor = makeMonitor(IngestConfig{});
    std::string good = logging::encodeLogLine(ping(1, 1.0));

    // Bad timestamp: the date tokens do not parse.
    std::string bad_stamp = good;
    bad_stamp.replace(0, 10, "XXXX-YY-ZZ");
    EXPECT_TRUE(monitor->feedLine(bad_stamp).empty());

    // Bad header: a level token that names no level.
    std::string bad_level =
        good.substr(0, good.find(" INFO ")) + " LOUD ping x";
    EXPECT_TRUE(monitor->feedLine(bad_level).empty());

    // Truncated payload: a clean timestamp with the tail cut off.
    std::string truncated = good.substr(0, good.find("svc-a") + 5);
    EXPECT_TRUE(monitor->feedLine(truncated).empty());

    const IngestStats &stats = monitor->ingestStats();
    EXPECT_EQ(stats.linesSeen, 3u);
    EXPECT_EQ(stats.malformedBadTimestamp, 1u);
    EXPECT_EQ(stats.malformedBadHeader, 1u);
    EXPECT_EQ(stats.malformedTruncatedPayload, 1u);
    EXPECT_EQ(stats.malformed(), 3u);
    EXPECT_EQ(monitor->malformedLines(), 3u);
    EXPECT_EQ(stats.recordsDelivered, 0u);

    // The quarantine retains the raw lines with their causes.
    ASSERT_EQ(monitor->quarantine().size(), 3u);
    EXPECT_EQ(monitor->quarantine()[0].line, bad_stamp);
    EXPECT_EQ(monitor->quarantine()[0].cause,
              logging::DecodeFailure::BadTimestamp);
    EXPECT_EQ(monitor->quarantine()[1].cause,
              logging::DecodeFailure::BadHeader);
    EXPECT_EQ(monitor->quarantine()[2].cause,
              logging::DecodeFailure::TruncatedPayload);
}

TEST_F(IngestTest, QuarantineSampleIsBounded)
{
    auto monitor = makeMonitor(IngestConfig{});
    const std::size_t lines = kQuarantineSampleCap + 3;
    for (std::size_t i = 0; i < lines; ++i)
        monitor->feedLine("garbage line " + std::to_string(i));
    EXPECT_EQ(monitor->ingestStats().malformed(), lines);
    EXPECT_EQ(monitor->quarantine().size(), kQuarantineSampleCap)
        << "counting is unbounded, retention is not";
}

TEST_F(IngestTest, TruncatedWireLineLandsInQuarantine)
{
    auto monitor = makeMonitor(IngestConfig{});
    std::string good = logging::encodeLogLine(ping(1, 1.0));
    // Cut inside the body: still parseable, so it is delivered (the
    // checker sees a mangled message, not the quarantine).
    std::string cut_body = good.substr(0, good.size() - 4);
    monitor->feedLine(cut_body);
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, 1u);
    // Cut inside the header: quarantined as a truncation artefact.
    std::string cut_header = good.substr(0, 28);
    monitor->feedLine(cut_header);
    EXPECT_EQ(monitor->ingestStats().malformedTruncatedPayload, 1u);
}

// --- Non-monotonic timestamp guard --------------------------------

TEST_F(IngestTest, BackwardsStampMustNotRetroactivelyFireTimeout)
{
    // Regression: a record stamped far in the past used to plant its
    // group back at that stamp, so the very next sweep would "time
    // out" work that had been active for milliseconds.
    IngestConfig ingest;
    ingest.clampNonMonotonic = true;
    auto monitor = makeMonitor(ingest);

    monitor->feed(ping(1, 100.0));
    // Backwards by 95 s (for example a node whose NTP just stepped).
    EXPECT_TRUE(monitor->feed(ping(2, 5.0)).empty());
    EXPECT_EQ(monitor->ingestStats().nonMonotonicClamped, 1u);
    EXPECT_DOUBLE_EQ(monitor->ingestStats().maxRegressionSeconds,
                     95.0);

    // 5 s later (well under the 10 s timeout): neither group may
    // fire. Unclamped, the uuid(2) group would sit at t=5 and be 100 s
    // "old" already.
    auto reports = monitor->feed(ping(3, 105.0));
    EXPECT_TRUE(reports.empty())
        << "clamped group timed out retroactively";
    EXPECT_EQ(monitor->activeGroups(), 3u);

    // ... and the clamp must not *suppress* the criterion either: by
    // t=120 all three groups are genuinely stale.
    auto late = monitor->feed(record("svc-c", "noise", 120.0));
    EXPECT_EQ(late.size(), 3u);
    for (const MonitorReport &report : late)
        EXPECT_EQ(report.event.kind, CheckEventKind::Timeout);
}

TEST_F(IngestTest, UnclampedGuardCountsButDoesNotIntervene)
{
    // Default config: the hazard is visible (counted) but behavior is
    // exactly the unhardened path — the backwards group really does
    // fire retroactively.
    auto monitor = makeMonitor(IngestConfig{});
    monitor->feed(ping(1, 100.0));
    monitor->feed(ping(2, 5.0));
    EXPECT_EQ(monitor->ingestStats().nonMonotonicClamped, 1u);
    auto reports = monitor->feed(ping(3, 105.0));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].event.kind, CheckEventKind::Timeout);
}

// --- Near-duplicate suppression -----------------------------------

TEST_F(IngestTest, DedupSuppressesExactRedeliveries)
{
    IngestConfig ingest;
    ingest.dedupWindowSeconds = 5.0;
    auto monitor = makeMonitor(ingest);

    logging::LogRecord first = ping(1, 1.0);
    monitor->feed(first);
    monitor->feed(first); // at-least-once shipper re-delivery
    EXPECT_EQ(monitor->ingestStats().duplicatesSuppressed, 1u);
    EXPECT_EQ(monitor->activeGroups(), 1u);

    auto reports = monitor->feed(pong(1, 2.0));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].event.kind, CheckEventKind::Accepted);
    EXPECT_EQ(monitor->stats().accepted, 1u);
}

TEST_F(IngestTest, DedupSparesGenuineRepeats)
{
    IngestConfig ingest;
    ingest.dedupWindowSeconds = 5.0;
    auto monitor = makeMonitor(ingest);
    // Same template and identifier, different timestamps: a genuine
    // repeat, not a re-delivery.
    monitor->feed(ping(1, 1.0));
    monitor->feed(ping(1, 1.5));
    EXPECT_EQ(monitor->ingestStats().duplicatesSuppressed, 0u);
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, 2u);
}

TEST_F(IngestTest, DedupWindowExpires)
{
    IngestConfig ingest;
    ingest.dedupWindowSeconds = 2.0;
    auto monitor = makeMonitor(ingest, 1000.0);
    logging::LogRecord first = ping(1, 1.0);
    monitor->feed(first);
    monitor->feed(record("svc-c", "noise", 10.0)); // advance the clock
    // The key expired with the window, so an identical record is
    // delivered again rather than suppressed.
    monitor->feed(first);
    EXPECT_EQ(monitor->ingestStats().duplicatesSuppressed, 0u);
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, 3u);
}

// --- Reorder buffer -----------------------------------------------

TEST_F(IngestTest, ReorderBufferRepairsInversionWithinWindow)
{
    IngestConfig ingest;
    ingest.reorderWindowSeconds = 1.0;
    auto monitor = makeMonitor(ingest);

    std::vector<MonitorReport> reports;
    // Arrival order inverts the causal order by 0.1 s.
    for (auto r : monitor->feed(pong(1, 2.0)))
        reports.push_back(std::move(r));
    for (auto r : monitor->feed(ping(1, 1.9)))
        reports.push_back(std::move(r));
    // A later record moves the watermark past both.
    for (auto r : monitor->feed(record("svc-c", "noise", 5.0)))
        reports.push_back(std::move(r));
    for (auto r : monitor->finish())
        reports.push_back(std::move(r));

    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].event.kind, CheckEventKind::Accepted);
    EXPECT_EQ(monitor->stats().accepted, 1u);
    EXPECT_GE(monitor->ingestStats().reorderBufferPeak, 2u);
}

TEST_F(IngestTest, ReorderBufferOverflowForcesRelease)
{
    IngestConfig ingest;
    ingest.reorderWindowSeconds = 1000.0; // watermark never ripens
    auto monitor = makeMonitor(ingest, 1e6);
    const std::size_t records = kReorderBufferCap + 3;
    for (std::size_t i = 0; i < records; ++i)
        monitor->feed(ping(static_cast<int>(i) + 1, 1.0 + 0.1 * i));
    EXPECT_EQ(monitor->ingestStats().forcedReleases, 3u);
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, 3u);
    monitor->finish();
    EXPECT_EQ(monitor->ingestStats().recordsDelivered, records)
        << "finish must flush the buffer";
}

// --- Group-cap shedding -------------------------------------------

TEST_F(IngestTest, GroupCapShedsOldestAndEmitsDegraded)
{
    IngestConfig ingest;
    ingest.maxActiveGroups = 3;
    auto monitor = makeMonitor(ingest, 1000.0);

    std::vector<MonitorReport> degraded;
    for (int i = 0; i < 6; ++i) {
        for (auto r : monitor->feed(ping(i + 1, 1.0 + 0.1 * i))) {
            ASSERT_EQ(r.event.kind, CheckEventKind::Degraded);
            degraded.push_back(std::move(r));
        }
        EXPECT_LE(monitor->activeGroups(), 3u)
            << "cap exceeded after feeding ping " << i + 1;
    }
    // Every shed group is accounted for by exactly one Degraded
    // report.
    EXPECT_EQ(degraded.size(), 3u);
    EXPECT_EQ(monitor->ingestStats().groupsShed, 3u);
    EXPECT_EQ(monitor->stats().groupsShed, 3u);

    // The survivors are the youngest: their pongs still complete.
    std::size_t accepted = 0;
    for (int i = 3; i < 6; ++i) {
        for (auto &r : monitor->feed(pong(i + 1, 2.0 + 0.1 * i))) {
            if (r.event.kind == CheckEventKind::Accepted)
                ++accepted;
        }
    }
    EXPECT_EQ(accepted, 3u);
}

TEST_F(IngestTest, DegradedReportRendersAsHealthSignal)
{
    IngestConfig ingest;
    ingest.maxActiveGroups = 1;
    auto monitor = makeMonitor(ingest, 1000.0);
    monitor->feed(ping(1, 1.0));
    auto reports = monitor->feed(ping(2, 1.1));
    ASSERT_EQ(reports.size(), 1u);
    EXPECT_EQ(reports[0].event.kind, CheckEventKind::Degraded);
    std::string summary = reports[0].summary(monitor->catalog());
    EXPECT_NE(summary.find("DEGRADED"), std::string::npos);
    std::string json = reportToJson(reports[0], monitor->catalog());
    EXPECT_NE(json.find("\"kind\":\"DEGRADED\""), std::string::npos);
}

// --- Pass-through guarantee ---------------------------------------

TEST_F(IngestTest, CleanStreamReportsBitIdenticalAcrossProfiles)
{
    // Acceptance criterion: on a clean, timestamp-ordered stream the
    // hardened profile must produce exactly the report sequence of
    // the default (unhardened) path — every guard passes through.
    auto plain = makeMonitor(IngestConfig{});
    auto hardened = makeMonitor(hardenedIngestDefaults());

    std::vector<logging::LogRecord> stream;
    double t = 0.0;
    for (int i = 0; i < 60; ++i) {
        int id = i + 1;
        stream.push_back(ping(id, t += 0.05));
        if (i % 2 == 1) { // interleave: close two sequences together
            stream.push_back(pong(id - 1, t += 0.05));
            stream.push_back(pong(id, t += 0.05));
        }
        if (i % 7 == 0) // some sequences never finish -> timeouts
            stream.back().body = "unrelated chatter";
        if (i % 11 == 0)
            stream.push_back(record("svc-c", "noise", t += 0.05));
    }

    auto collect = [&](WorkflowMonitor &monitor) {
        std::vector<std::string> out;
        for (const logging::LogRecord &r : stream) {
            for (const MonitorReport &report : monitor.feed(r))
                out.push_back(reportToJson(report, monitor.catalog()));
        }
        for (const MonitorReport &report : monitor.finish())
            out.push_back(reportToJson(report, monitor.catalog()));
        return out;
    };

    std::vector<std::string> plain_reports = collect(*plain);
    std::vector<std::string> hardened_reports = collect(*hardened);
    ASSERT_FALSE(plain_reports.empty());
    ASSERT_EQ(plain_reports.size(), hardened_reports.size());
    for (std::size_t i = 0; i < plain_reports.size(); ++i)
        EXPECT_EQ(plain_reports[i], hardened_reports[i]) << "at " << i;

    // And the guards confirm they never intervened.
    const IngestStats &stats = hardened->ingestStats();
    EXPECT_EQ(stats.duplicatesSuppressed, 0u);
    EXPECT_EQ(stats.groupsShed, 0u);
    EXPECT_EQ(stats.forcedReleases, 0u);
    EXPECT_EQ(stats.nonMonotonicClamped, 0u);
}
