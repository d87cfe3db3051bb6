/**
 * @file
 * Byte-identity of the one-pass report and forensic-bundle renderers
 * against the frozen concatenating ones in report_json_reference.hpp:
 * an edge corpus for the escaper, the fixed-point formatter, reports
 * and flight-recorder context, and a differential over perturbed wire
 * streams through a hardened monitor with the flight recorder armed.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <random>

#include "collect/stream_merger.hpp"
#include "collect/stream_perturber.hpp"
#include "common/string_util.hpp"
#include "core/monitor/report_json.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/latency_harness.hpp"
#include "eval/modeling_harness.hpp"
#include "logging/log_codec.hpp"
#include "obs/flight_recorder.hpp"
#include "report_json_reference.hpp"
#include "sim/simulation.hpp"
#include "workload/workload_generator.hpp"

using namespace cloudseer;

namespace {

/** printf "%.*f" with room for every digit (the reference has 64). */
std::string
wideFixed(double value, int precision)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

/** Strings that stress the escaper: every byte, quoting, UTF-8. */
std::vector<std::string>
stringCorpus()
{
    std::vector<std::string> out = {
        "", "plain", "\"", "\\", "\\\"", "\"\\\"", "a\"b\\c",
        "tab\there", "cr\rlf\n", "\x7f", "caf\xc3\xa9",
        "\xe6\x97\xa5\xe6\x9c\xac", "\xf0\x9f\x94\xa5 fire",
        "\xc3\x28 invalid", "\xff\xfe", std::string(3, '\0'),
        std::string("nul\0mid", 7), "\\u0041 not an escape",
    };
    std::string all;
    for (int c = 0; c < 256; ++c) {
        out.push_back(std::string(1, static_cast<char>(c)));
        out.push_back("x" + std::string(1, static_cast<char>(c)) + "y");
        all.push_back(static_cast<char>(c));
    }
    out.push_back(all);
    std::mt19937_64 rng(17);
    for (int i = 0; i < 500; ++i) {
        std::string s(rng() % 40, '\0');
        for (char &c : s)
            c = static_cast<char>(rng() % 256);
        out.push_back(s);
    }
    return out;
}

/** Doubles whose fixed-point form fits the reference's 64 bytes. */
std::vector<double>
doubleCorpus()
{
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<double> out = {
        0.0, -0.0, 0.0005, -0.0005, 2.0005, -2.0005, 0.0015, 0.0025,
        1.0005, 0.9995, 9.9995, 99.9995, 0.0625, 1.0625, 0.1875,
        0.0004999999, 1e-3, -1e-4, 1e17, -1e17, 1e22, 123456789.0125,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(), 2.2250738585072009e-308,
        inf, -inf, std::nan(""), -std::nan(""), 3.0, 83.21, 1e54,
    };
    std::mt19937_64 rng(29);
    for (int i = 0; i < 2000; ++i) {
        // Message-clock-like stamps and sub-millisecond offsets.
        out.push_back(static_cast<double>(rng() % 100000000) / 1000.0 +
                      static_cast<double>(rng() % 1000) * 1e-7);
        out.push_back(static_cast<double>(rng() % 2000000) / 2048.0);
    }
    return out;
}

bool
problem(core::CheckEventKind kind)
{
    return kind == core::CheckEventKind::ErrorDetected ||
           kind == core::CheckEventKind::Timeout ||
           kind == core::CheckEventKind::LatencyAnomaly;
}

} // namespace

TEST(ReportJsonReference, EscaperMatchesOnEdgeCorpus)
{
    for (const std::string &s : stringCorpus()) {
        EXPECT_EQ(common::jsonEscape(s), reference::jsonEscape(s));
        std::string appended = "prefix\"";
        common::appendJsonEscaped(appended, s);
        EXPECT_EQ(appended, "prefix\"" + reference::jsonEscape(s));
    }
}

TEST(ReportJsonReference, FixedMatchesSnprintfOnEdgeCorpus)
{
    for (double value : doubleCorpus()) {
        for (int precision : {3, 0, 1, 2, 4, 6}) {
            std::string want = reference::formatDouble(value, precision);
            ASSERT_EQ(want, wideFixed(value, precision)) << "cut short";
            EXPECT_EQ(common::formatDouble(value, precision), want)
                << value << " at " << precision;
            std::string appended = "[";
            common::appendFixed(appended, value, precision);
            EXPECT_EQ(appended, "[" + want);
        }
    }
}

TEST(ReportJsonReference, WideFixedKeepsEveryDigit)
{
    // The reference's 64-byte buffer cut these to 63 bytes; the
    // formatter now writes printf's full output.
    for (double value : {1e300, -1e300, 1e60, -1e100,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::lowest()}) {
        std::string full = common::formatDouble(value, 3);
        EXPECT_EQ(full, wideFixed(value, 3)) << value;
        ASSERT_GT(full.size(), 63u);
        EXPECT_EQ(full.substr(0, 63), reference::formatDouble(value, 3));
    }
}

TEST(ReportJsonReference, ReportsMatchOnEdgeCorpus)
{
    const std::vector<std::string> strings = stringCorpus();
    const std::vector<double> doubles = doubleCorpus();
    logging::TemplateCatalog catalog;
    std::vector<logging::TemplateId> templates;
    for (std::size_t i = 0; i + 1 < strings.size(); i += 7)
        templates.push_back(catalog.intern(strings[i], strings[i + 1]));
    ASSERT_GT(templates.size(), 20u);

    std::mt19937_64 rng(5);
    auto pick = [&rng](const auto &items) {
        return items[rng() % items.size()];
    };
    for (int round = 0; round < 400; ++round) {
        core::MonitorReport report;
        core::CheckEvent &event = report.event;
        event.kind = static_cast<core::CheckEventKind>(rng() % 5);
        event.taskName = pick(strings);
        for (std::size_t i = rng() % 4; i > 0; --i)
            event.candidateTasks.push_back(pick(strings));
        for (std::size_t i = rng() % 6; i > 0; --i)
            event.records.push_back(rng() >> (rng() % 64));
        if (round == 0)
            event.records.push_back(std::numeric_limits<std::uint64_t>::max());
        for (std::size_t i = rng() % 4; i > 0; --i)
            event.frontierTemplates.push_back(pick(templates));
        for (std::size_t i = rng() % 4; i > 0; --i)
            event.expectedTemplates.push_back(pick(templates));
        event.time = pick(doubles);
        event.startTime = pick(doubles);
        event.group = rng();
        report.endOfStream = (rng() & 1) != 0;
        if (rng() % 3 != 0) {
            event.totalElapsed = pick(doubles);
            event.totalBudget = std::fabs(pick(doubles));
            for (std::size_t i = rng() % 5; i > 0; --i)
                event.criticalPath.push_back(
                    static_cast<int>(rng() % 200) - 100);
            if (round == 1)
                event.criticalPath.push_back(
                    std::numeric_limits<int>::min());
            for (std::size_t i = rng() % 4; i > 0; --i) {
                core::EdgeTiming timing;
                timing.from = static_cast<int>(rng() % 50) - 1;
                timing.to = static_cast<int>(rng() % 50);
                timing.fromTpl = pick(templates);
                timing.toTpl = pick(templates);
                timing.elapsed = pick(doubles);
                timing.budget = pick(doubles);
                timing.exceeded = (rng() & 1) != 0;
                event.edgeTimings.push_back(timing);
            }
        }
        // A duration of two corpus values can leave the reference's
        // 64 bytes; such pairs are WideFixedKeepsEveryDigit's business.
        const double duration = event.time - event.startTime;
        if (reference::formatDouble(duration, 3) != wideFixed(duration, 3)) {
            continue;
        }
        const std::string want = reference::reportToJson(report, catalog);
        EXPECT_EQ(core::reportToJson(report, catalog), want)
            << "round " << round;
        std::string appended = "{\"report\":";
        core::appendReportJson(appended, report, catalog);
        EXPECT_EQ(appended, "{\"report\":" + want) << "round " << round;
    }
}

TEST(ReportJsonReference, ContextMatchesAcrossRecordsAndWraps)
{
    // Node and line bytes from the corpus, clock ties across and
    // within nodes, and rings that wrap between renders, so cached
    // fragments are both reused and invalidated.
    const std::vector<std::string> strings = stringCorpus();
    obs::FlightRecorderConfig config;
    config.perNodeCapacity = 5;
    obs::FlightRecorder recorder(config);
    reference::ContextRecorder shadow(config.perNodeCapacity,
                                      obs::kFlightMaxNodes);
    // One node more than the recorder tracks: whichever arrives last
    // is dropped.
    std::vector<std::string> nodes = {"compute-1", "ctl\"\\",
                                      "a\x01node", "<malformed>"};
    while (nodes.size() <= obs::kFlightMaxNodes)
        nodes.push_back("node-" + std::to_string(nodes.size()));

    std::mt19937_64 rng(11);
    std::size_t renders = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::string &node = nodes[rng() % nodes.size()];
        const std::string &line = strings[rng() % strings.size()];
        double time = static_cast<double>(rng() % 40) * 0.25;
        recorder.record(node, time, line);
        shadow.record(node, time, line);
        if (rng() % 4 != 0)
            continue;

        std::vector<reference::ContextLine> want = shadow.context();
        std::vector<obs::ContextView> got = recorder.context();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].node, want[k].node);
            EXPECT_EQ(got[k].time, want[k].time);
            EXPECT_EQ(got[k].line, want[k].line);
        }
        std::string json = "[";
        recorder.appendContextJson(json);
        ASSERT_EQ(json, "[" + reference::contextJson(want)) << "at " << i;
        ++renders;
    }
    EXPECT_GT(renders, 500u);
    EXPECT_GT(recorder.droppedLines(), 0u); // the node past the cap
}

TEST(ReportJsonReference, MonitorBundlesMatchOnPerturbedStreams)
{
    // A hardened monitor with the flight recorder armed and a tight
    // latency policy, on the wire path through two perturbation
    // seeds: every report and every retained bundle must equal the
    // reference renderers' bytes, with context from a shadow of the
    // old recorder fed what the monitor captures.
    static const eval::ModeledSystem system = [] {
        eval::ModelingConfig config;
        config.minRuns = 60;
        config.checkEvery = 20;
        config.stableChecks = 3;
        config.maxRuns = 300;
        return eval::buildModels(config);
    }();

    core::MonitorConfig config;
    config.ingest = core::hardenedIngestDefaults();
    config.ingest.maxActiveGroups = 6;
    config.observability.flightRecorder.perNodeCapacity = 32;
    config.latencyProfiles =
        eval::mineSystemProfiles(system, eval::LatencyMiningConfig{});
    config.latencyCheck.quantile = 50;
    config.latencyCheck.factor = 1.0;
    config.latencyCheck.slackSeconds = 0.0;

    for (std::uint64_t seed : {3ull, 41ull}) {
        // Aborts that log an ERROR, so divergence bundles occur too.
        sim::Simulation simulation(sim::SimConfig{}, 500 + seed);
        simulation.setInjector(sim::FaultInjector(
            sim::InjectionPoint::AmqpSender, 0.25, 1.0, seed ^ 0xfa17ULL,
            12));
        workload::WorkloadConfig workload;
        workload.users = 3;
        workload.tasksPerUser = 160; // ~345 bundles: the store wraps
        workload.seed = seed;
        workload::WorkloadGenerator(workload).submitAll(simulation);
        simulation.run();
        collect::ShippingConfig shipping;
        shipping.seed = seed;
        std::vector<logging::LogRecord> stream =
            collect::mergeStream(simulation.records(), shipping);

        collect::PerturbationConfig adversity;
        adversity.dropProbability = 0.03;
        adversity.duplicateProbability = 0.02;
        adversity.truncateProbability = 0.02;
        adversity.corruptProbability = 0.01;
        adversity.clockSkewMaxSeconds = 0.05;
        adversity.seed = seed;
        collect::PerturbedStream wire =
            collect::StreamPerturber(adversity).apply(stream);

        core::WorkflowMonitor monitor(config, system.catalog,
                                      system.automataCopy());
        reference::ContextRecorder shadow(
            config.observability.flightRecorder.perNodeCapacity,
            obs::kFlightMaxNodes);
        std::vector<std::string> want_bundles;
        std::map<core::CheckEventKind, std::size_t> reasons;

        auto check = [&](const std::vector<core::MonitorReport> &reports,
                         std::size_t at) {
            for (const core::MonitorReport &report : reports) {
                ASSERT_EQ(core::reportToJson(report, *system.catalog),
                          reference::reportToJson(report, *system.catalog))
                    << "seed " << seed << " line " << at;
                if (!problem(report.event.kind))
                    continue;
                ++reasons[report.event.kind];
                want_bundles.push_back(reference::forensicBundleJson(
                    report, *system.catalog, monitor.interner(),
                    shadow.context()));
            }
            // The retained bundles are the newest kFlightMaxBundles.
            const std::vector<std::string> &got =
                monitor.flightRecorder()->bundles();
            std::size_t keep = std::min<std::size_t>(
                want_bundles.size(), obs::kFlightMaxBundles);
            ASSERT_EQ(got.size(), keep);
            for (std::size_t k = 0; k < keep; ++k)
                ASSERT_EQ(got[k], want_bundles[want_bundles.size() - keep + k])
                    << "seed " << seed << " line " << at;
        };

        for (std::size_t i = 0; i < wire.lines.size(); ++i) {
            const std::string &line = wire.lines[i];
            // What the monitor captures on arrival: the re-encoded
            // record, or a malformed line stamped with the clock.
            if (auto record = logging::decodeLogLine(line))
                shadow.record(record->node, record->timestamp,
                              logging::encodeLogLine(*record));
            else
                shadow.record("<malformed>", monitor.lastTime(), line);
            std::vector<core::MonitorReport> reports =
                monitor.feedLine(line);
            if (!reports.empty() || i % 97 == 0)
                check(reports, i);
        }
        check(monitor.finish(), wire.lines.size());

        const obs::FlightRecorder &recorder = *monitor.flightRecorder();
        EXPECT_EQ(recorder.droppedBundles() + recorder.bundles().size(),
                  want_bundles.size());
        EXPECT_GT(recorder.droppedBundles(), 0u) << "seed " << seed;
        EXPECT_GT(monitor.malformedLines(), 0u) << "seed " << seed;
        // Not vacuous: every bundle reason occurred.
        EXPECT_GT(reasons[core::CheckEventKind::ErrorDetected], 0u)
            << "seed " << seed;
        EXPECT_GT(reasons[core::CheckEventKind::Timeout], 0u)
            << "seed " << seed;
        EXPECT_GT(reasons[core::CheckEventKind::LatencyAnomaly], 0u)
            << "seed " << seed;
    }
}
