/**
 * @file
 * Tests for the monitor's stage clock (DESIGN.md §16): nested scopes
 * charge each stage its own time only, laps run on one input in
 * StageClock::kLapEvery and only inside an input, a scope without a
 * clock does nothing, and over a monitor's own traffic every lapped
 * input's stage laps partition its total.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/monitor/workflow_monitor.hpp"
#include "logging/template_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/stage_clock.hpp"

using namespace cloudseer;
using namespace cloudseer::obs;

namespace {

/** A stage clock over free-standing histograms, every stage timed. */
struct ClockRig
{
    Histogram total{-1, 6};
    std::vector<Histogram> laps =
        std::vector<Histogram>(kStageCount, Histogram(-1, 6));
    StageClock clock{total};

    ClockRig()
    {
        for (int stage = 0; stage < kStageCount; ++stage)
            clock.laps(static_cast<Stage>(stage)) =
                &laps[static_cast<std::size_t>(stage)];
    }

    Histogram &
    lap(Stage stage)
    {
        return laps[static_cast<std::size_t>(stage)];
    }

    double
    lapSum()
    {
        double sum = 0.0;
        for (const Histogram &h : laps)
            sum += h.sum();
        return sum;
    }
};

// --- stage scopes ------------------------------------------------------

TEST(StageScopeTest, NestsInnermostWinsAndRestores)
{
    using std::chrono::milliseconds;
    ClockRig rig;
    {
        StageScope outer(Stage::Sink, &rig.clock);
        {
            StageScope inner(Stage::Check, &rig.clock);
            std::this_thread::sleep_for(milliseconds(3));
        }
        // The inner scope has closed: the outer one takes the time
        // again.
        std::this_thread::sleep_for(milliseconds(2));
    }
    EXPECT_GE(rig.lap(Stage::Check).sum(), 3000.0);
    EXPECT_GE(rig.lap(Stage::Sink).sum(), 2000.0);
    EXPECT_LE(rig.lap(Stage::Sink).sum(), rig.total.sum() - 3000.0);
}

TEST(StageScopeTest, ScopeWithoutAClockDoesNothing)
{
    ClockRig rig;
    {
        StageScope input(Stage::Sink, nullptr);
        StageScope check(Stage::Check, nullptr);
    }
    EXPECT_EQ(rig.total.count(), 0u);
    // Nor does it disturb an input that is on the clock.
    {
        StageScope input(Stage::Sink, &rig.clock);
        StageScope check(Stage::Check, nullptr);
    }
    EXPECT_EQ(rig.total.count(), 1u);
    EXPECT_EQ(rig.lap(Stage::Check).count(), 0u);
    EXPECT_EQ(rig.lap(Stage::Sink).count(), 1u);
}

TEST(StageScopeTest, StageNamesAreStable)
{
    EXPECT_STREQ(stageName(Stage::Sink), "sink");
    EXPECT_STREQ(stageName(Stage::Parse), "parse");
    EXPECT_STREQ(stageName(Stage::Route), "route");
    EXPECT_STREQ(stageName(Stage::Check), "check");
    EXPECT_STREQ(stageName(Stage::Verdict), "verdict");
    EXPECT_STREQ(stageName(Stage::WalAppend), "wal_append");
}

// --- the stage clock ----------------------------------------------------

TEST(StageClockTest, InnermostScopeTakesTheTime)
{
    using std::chrono::milliseconds;
    ClockRig rig;
    {
        StageScope input(Stage::Sink, &rig.clock);
        std::this_thread::sleep_for(milliseconds(2));
        {
            StageScope check(Stage::Check, &rig.clock);
            std::this_thread::sleep_for(milliseconds(5));
            StageScope verdict(Stage::Verdict, &rig.clock);
            std::this_thread::sleep_for(milliseconds(1));
        }
    }
    ASSERT_EQ(rig.total.count(), 1u);
    EXPECT_EQ(rig.lap(Stage::Sink).count(), 1u);
    EXPECT_EQ(rig.lap(Stage::Check).count(), 1u);
    EXPECT_EQ(rig.lap(Stage::Verdict).count(), 1u);
    EXPECT_EQ(rig.lap(Stage::Parse).count(), 0u);
    // Each stage holds its own time only, never its nested stages'.
    EXPECT_GE(rig.lap(Stage::Sink).sum(), 2000.0);
    EXPECT_GE(rig.lap(Stage::Check).sum(), 5000.0);
    EXPECT_GE(rig.lap(Stage::Verdict).sum(), 1000.0);
    EXPECT_LE(rig.lap(Stage::Sink).sum(), rig.total.sum() - 6000.0);
    EXPECT_LE(rig.lap(Stage::Check).sum(), rig.total.sum() - 3000.0);
    // The laps partition the input: together they are its total.
    EXPECT_LE(rig.lapSum(), rig.total.sum() + 1e-6);
    EXPECT_NEAR(rig.lapSum(), rig.total.sum(), 1e-3);
}

TEST(StageClockTest, LapsOnePerCadenceAndOnlyInsideAnInput)
{
    ClockRig rig;
    {
        // Outside an input a scope reads no clock.
        StageScope route(Stage::Route, &rig.clock);
    }
    EXPECT_EQ(rig.total.count(), 0u);
    EXPECT_EQ(rig.lap(Stage::Route).count(), 0u);

    for (std::uint64_t i = 0; i <= StageClock::kLapEvery; ++i) {
        StageScope input(Stage::Sink, &rig.clock);
        StageScope nested(Stage::Sink, &rig.clock);
        StageScope parse(Stage::Parse, &rig.clock);
    }
    // Every input is totalled once; nested sink scopes belong to it.
    EXPECT_EQ(rig.total.count(), StageClock::kLapEvery + 1);
    // Inputs 0 and kLapEvery lapped, each stage summed per input.
    EXPECT_EQ(rig.lap(Stage::Sink).count(), 2u);
    EXPECT_EQ(rig.lap(Stage::Parse).count(), 2u);
}

TEST(StageClockTest, MonitorLapsPartitionEveryLappedInput)
{
    // Over a monitor's own traffic, every nanosecond of a lapped input
    // lands in exactly one stage: the stages' lap increments sum to the
    // input's total, and each pipeline stage is reached.
    auto catalog = std::make_shared<logging::TemplateCatalog>();
    logging::TemplateId ping = catalog->intern("svc-a", "ping <uuid>");
    logging::TemplateId pong = catalog->intern("svc-b", "pong <uuid>");
    std::vector<core::TaskAutomaton> automata;
    automata.emplace_back(
        "ping-pong",
        std::vector<core::EventNode>{{ping, 0}, {pong, 0}},
        std::vector<core::DependencyEdge>{{0, 1, true}});
    core::MonitorConfig config;
    config.timeoutSeconds = 5.0;
    config.observability.metrics = true;
    core::WorkflowMonitor monitor(config, catalog, std::move(automata));
    ASSERT_NE(monitor.observability(), nullptr);
    StageClock &clock = *monitor.observability()->stageClock();

    // 64 interleaved ping-pongs per pass, every eighth pong missing
    // (a timeout), restamped forward on each pass.
    std::vector<logging::LogRecord> pass;
    for (int task = 0; task < 64; ++task) {
        char uuid[64];
        std::snprintf(uuid, sizeof uuid,
                      "%08d-3333-3333-3333-333333333333", task);
        logging::LogRecord record;
        record.node = "n1";
        record.level = logging::LogLevel::Info;
        record.service = "svc-a";
        record.body = std::string("ping ") + uuid;
        record.timestamp = 0.01 * task;
        pass.push_back(record);
        if (task % 8 != 7) {
            record.service = "svc-b";
            record.body = std::string("pong ") + uuid;
            record.timestamp += 0.005;
            pass.push_back(record);
        }
    }

    constexpr Stage kPipeline[] = {Stage::Sink, Stage::Parse,
                                   Stage::Route, Stage::Check,
                                   Stage::Verdict};
    auto lapCount = [&clock](Stage stage) {
        Histogram *lap = clock.laps(stage);
        return lap == nullptr ? std::uint64_t{0} : lap->count();
    };
    auto lapSum = [&clock]() {
        double sum = 0.0;
        for (int stage = 0; stage < kStageCount; ++stage)
            if (Histogram *lap = clock.laps(static_cast<Stage>(stage)))
                sum += lap->sum();
        return sum;
    };
    auto lapsTaken = [&]() {
        std::uint64_t n = 0;
        for (int stage = 0; stage < kStageCount; ++stage)
            n += lapCount(static_cast<Stage>(stage));
        return n;
    };

    logging::RecordId next = 1;
    std::uint64_t lapped = 0;
    for (int round = 0; round < 16; ++round) {
        for (logging::LogRecord record : pass) {
            record.id = next++;
            record.timestamp += static_cast<double>(round);
            double total_before = clock.total().sum();
            double laps_before = lapSum();
            std::uint64_t taken_before = lapsTaken();
            monitor.feed(record);
            if (lapsTaken() == taken_before)
                continue;
            ++lapped;
            EXPECT_NEAR(lapSum() - laps_before,
                        clock.total().sum() - total_before, 1e-3)
                << "input " << record.id;
        }
    }
    std::uint64_t inputs = clock.total().count();
    EXPECT_EQ(inputs, static_cast<std::uint64_t>(next - 1));
    EXPECT_EQ(lapped, (inputs + StageClock::kLapEvery - 1) /
                          StageClock::kLapEvery);
    for (Stage stage : kPipeline)
        EXPECT_GE(lapCount(stage), 1u) << stageName(stage);
}

} // namespace
