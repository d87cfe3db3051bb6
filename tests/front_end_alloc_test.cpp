/**
 * @file
 * Steady-state allocation tests for the monitor's per-line front end
 * and its renderers: once the scan buffers, the catalog and the
 * interner have seen a stream, scanning, looking up and interning it
 * again must not touch the heap; a report renders into a reserved
 * buffer without allocating; and a warm flight recorder captures a
 * forensic bundle with one allocation, the stored string. Every global
 * operator new in this binary is counted, which is why the tests have
 * a binary of their own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>

#include "core/monitor/report_json.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/accuracy_harness.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/template_catalog.hpp"
#include "logging/variable_extractor.hpp"

namespace {

std::atomic<std::size_t> gAllocations{0};

void *
countedAlloc(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every unaligned form, so each new/delete pair stays malloc/free
// (sanitizers check the pairing).
void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size == 0 ? 1 : size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return operator new(size, tag);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

using namespace cloudseer;

TEST(FrontEndAllocation, WarmScanFindInternAllocatesNothing)
{
    eval::DatasetConfig config;
    config.users = 3;
    config.tasksPerUser = 4;
    config.seed = 3;
    const std::vector<logging::LogRecord> stream =
        eval::generateDataset(config).stream;
    ASSERT_GT(stream.size(), 100u);

    logging::VariableExtractor extractor;
    logging::TemplateCatalog catalog;
    logging::IdentifierInterner interner;
    std::string templ;
    std::vector<logging::VariableRef> vars;
    std::vector<logging::IdToken> tokens;

    // Warm-up: what modeling and the first pass leave behind.
    const std::size_t warm_start = gAllocations.load();
    for (const logging::LogRecord &record : stream) {
        extractor.scan(record.body, templ, vars);
        catalog.intern(record.service, templ);
        for (const logging::VariableRef &var : vars)
            tokens.push_back(interner.intern(var.text));
    }
    const std::size_t token_capacity = tokens.size();
    tokens.clear();

    std::size_t misses = 0;
    const std::size_t before = gAllocations.load();
    for (const logging::LogRecord &record : stream) {
        std::uint64_t hash = extractor.scan(record.body, templ, vars);
        misses += catalog.find(record.service, templ, hash) ==
                  logging::kInvalidTemplate;
        for (const logging::VariableRef &var : vars)
            tokens.push_back(interner.intern(var.text));
    }
    const std::size_t after = gAllocations.load();

    EXPECT_GT(before, warm_start); // the counter is live
    EXPECT_EQ(after - before, 0u);
    EXPECT_EQ(misses, 0u);
    EXPECT_EQ(tokens.size(), token_capacity);
    EXPECT_EQ(interner.stats().misses, interner.size());
}

namespace {

/** The ping/pong task of flight_test: an ERROR line diverges it. */
class BundleAllocation : public ::testing::Test
{
  protected:
    std::shared_ptr<logging::TemplateCatalog> catalog =
        std::make_shared<logging::TemplateCatalog>();

    std::unique_ptr<core::WorkflowMonitor>
    makeMonitor(std::size_t flight_capacity)
    {
        logging::TemplateId ping = catalog->intern("svc-a", "ping <uuid>");
        logging::TemplateId pong = catalog->intern("svc-b", "pong <uuid>");
        std::vector<core::TaskAutomaton> automata;
        automata.emplace_back(
            "ping-pong",
            std::vector<core::EventNode>{{ping, 0}, {pong, 0}},
            std::vector<core::DependencyEdge>{{0, 1, true}});
        core::MonitorConfig config;
        config.observability.flightRecorder.perNodeCapacity =
            flight_capacity;
        return std::make_unique<core::WorkflowMonitor>(config, catalog,
                                                       automata);
    }

    static logging::LogRecord
    record(logging::RecordId id, double t, const std::string &service,
           const std::string &body, logging::LogLevel level)
    {
        logging::LogRecord out;
        out.id = id;
        out.timestamp = t;
        out.node = "controller";
        out.service = service;
        out.level = level;
        out.body = body;
        return out;
    }

    /**
     * Fixed-width lines and stamps: every ring slot and context
     * fragment keeps its length from one round to the next.
     */
    static std::vector<logging::LogRecord>
    round(int k)
    {
        char uuid[37];
        std::snprintf(uuid, sizeof(uuid),
                      "%08d-aaaa-bbbb-cccc-dddddddddddd", k);
        double t = 100.0 + k;
        return {record(2 * k, t, "svc-a", std::string("ping ") + uuid,
                       logging::LogLevel::Info),
                record(2 * k + 1, t + 0.5, "svc-a",
                       std::string("exploded on ") + uuid,
                       logging::LogLevel::Error)};
    }
};

std::size_t
allocationsDuring(const std::function<void()> &work)
{
    const std::size_t before = gAllocations.load();
    work();
    return gAllocations.load() - before;
}

} // namespace

TEST_F(BundleAllocation, CapturingOneBundleAllocatesAtMostOnce)
{
    // Two monitors fed the same records, one with the flight recorder:
    // the difference in allocations is what recording lines and
    // capturing bundles cost. Once the rings, the fragment cache, the
    // bundle store and the reservation are warm, that is nothing per
    // line and one allocation (the stored string) per bundle.
    // The warm-up fills the bundle store and wraps it 36 times, so
    // every measured bundle overwrites a stored one.
    auto bare = makeMonitor(0);
    auto flight = makeMonitor(8);
    const int warm = static_cast<int>(obs::kFlightMaxBundles) + 36;
    for (int k = 100; k < 100 + warm; ++k)
        for (const logging::LogRecord &r : round(k)) {
            bare->feed(r);
            flight->feed(r);
        }

    std::size_t bundles = 0;
    for (int k = 100 + warm; k < 140 + warm; ++k) {
        const std::vector<logging::LogRecord> records = round(k);
        for (const logging::LogRecord &r : records) {
            std::vector<core::MonitorReport> reports;
            std::size_t base = allocationsDuring([&] {
                reports = bare->feed(r);
            });
            std::size_t dropped = flight->flightRecorder()->droppedBundles();
            std::size_t with = allocationsDuring([&] {
                reports = flight->feed(r);
            });
            std::size_t captured =
                flight->flightRecorder()->droppedBundles() - dropped;
            bundles += captured;
            EXPECT_LE(with, base + captured) << "round " << k;
            EXPECT_GE(with, base) << "round " << k;
        }
    }
    EXPECT_EQ(bundles, 40u); // one divergence bundle per round
}

TEST_F(BundleAllocation, ReportIntoReservedBufferAllocatesNothing)
{
    auto monitor = makeMonitor(0);
    std::vector<core::MonitorReport> reports;
    for (const logging::LogRecord &r : round(1))
        for (core::MonitorReport &report : monitor->feed(r))
            reports.push_back(std::move(report));
    ASSERT_EQ(reports.size(), 1u);
    // A latency section too: labels, a critical path, edge timings.
    core::MonitorReport latency = reports[0];
    latency.event.totalElapsed = 2.0;
    latency.event.totalBudget = 1.0;
    latency.event.criticalPath = {0, 1};
    latency.event.edgeTimings.push_back({0, 1, 0, 1, 2.0, 1.0, true});
    reports.push_back(latency);

    std::string out;
    out.reserve(4096);
    std::size_t allocations = allocationsDuring([&] {
        for (int i = 0; i < 100; ++i) {
            out.clear();
            for (const core::MonitorReport &report : reports)
                core::appendReportJson(out, report, *catalog);
        }
    });
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(out, core::reportToJson(reports[0], *catalog) +
                       core::reportToJson(reports[1], *catalog));
}
