/**
 * @file
 * Robustness and resource-boundedness tests: a monitor that runs for
 * months must not accumulate groups, identifier sets, or catalog
 * entries without bound, and every configuration variant must stay
 * correct on clean input.
 */

#include <gtest/gtest.h>

#include "eval/accuracy_harness.hpp"
#include "eval/modeling_harness.hpp"
#include "workload/workload_generator.hpp"

using namespace cloudseer;

namespace {

const eval::ModeledSystem &
models()
{
    static eval::ModeledSystem system = [] {
        eval::ModelingConfig config;
        config.minRuns = 40;
        config.maxRuns = 150;
        return eval::buildModels(config);
    }();
    return system;
}

} // namespace

TEST(Robustness, LongRunStateStaysBounded)
{
    // 4 users x 200 tasks (~10k messages): the live-state tables must
    // track in-flight work only, never history.
    eval::DatasetConfig config;
    config.users = 4;
    config.tasksPerUser = 200;
    config.seed = 71;
    eval::GeneratedDataset dataset = eval::generateDataset(config);

    core::MonitorConfig monitor_config;
    core::WorkflowMonitor monitor(monitor_config, models().catalog,
                                  models().automataCopy());
    std::size_t peak_groups = 0;
    std::size_t peak_sets = 0;
    for (const logging::LogRecord &record : dataset.stream) {
        monitor.feed(record);
        peak_groups = std::max(peak_groups, monitor.activeGroups());
        peak_sets =
            std::max(peak_sets, monitor.activeIdentifierSets());
    }
    monitor.finish();

    // With 4 users, in-flight work is a handful of sequences plus
    // short-lived hypothesis forks and fading zombies.
    EXPECT_LE(peak_groups, 40u)
        << "group table must not grow with stream length";
    EXPECT_LE(peak_sets, 40u);
    EXPECT_EQ(monitor.activeGroups(), 0u);
    EXPECT_EQ(monitor.activeIdentifierSets(), 0u);
}

TEST(Robustness, AcceptanceRateHoldsOverLongRuns)
{
    eval::DatasetConfig config;
    config.users = 3;
    config.tasksPerUser = 150;
    config.seed = 73;
    core::MonitorConfig monitor_config;
    eval::DatasetResult result =
        eval::runDataset(models(), config, monitor_config);
    EXPECT_GE(static_cast<double>(result.acceptedCorrect) /
                  static_cast<double>(result.totalTasks),
              0.97);
}

TEST(Robustness, NumbersAsIdentifiersModeWorks)
{
    // Counting bare numbers as identifiers is noisier but must not
    // break checking on clean input.
    eval::DatasetConfig config;
    config.users = 2;
    config.tasksPerUser = 20;
    config.seed = 83;
    core::MonitorConfig monitor_config;
    monitor_config.numbersAsIdentifiers = true;
    eval::DatasetResult result =
        eval::runDataset(models(), config, monitor_config);
    EXPECT_GE(static_cast<double>(result.acceptedCorrect) /
                  static_cast<double>(result.totalTasks),
              0.9);
}

TEST(Robustness, TinyForkFanoutDegradesGracefully)
{
    eval::DatasetConfig config;
    config.users = 4;
    config.singleUid = true; // maximum ambiguity
    config.tasksPerUser = 40;
    config.seed = 89;
    core::MonitorConfig monitor_config;
    monitor_config.checker.maxForkFanout = 1;
    eval::DatasetResult result =
        eval::runDataset(models(), config, monitor_config);
    // A fanout of 1 disables hypothesis tracking on the nastiest
    // workload (shared identifiers everywhere). Accuracy collapses —
    // the test is that the checker *terminates* with consistent
    // accounting rather than looping or leaking.
    EXPECT_GT(result.acceptedCorrect, 0u);
    EXPECT_EQ(result.stats.messages, result.totalMessages);

    // And the default fanout handles the same workload well.
    core::MonitorConfig defaults;
    eval::DatasetResult healthy =
        eval::runDataset(models(), config, defaults);
    EXPECT_GE(static_cast<double>(healthy.acceptedCorrect) /
                  static_cast<double>(healthy.totalTasks),
              0.8);
}

TEST(Robustness, MonitorFinishIsIdempotentAfterWork)
{
    eval::DatasetConfig config;
    config.users = 2;
    config.tasksPerUser = 6;
    config.seed = 97;
    eval::GeneratedDataset dataset = eval::generateDataset(config);
    core::WorkflowMonitor monitor(core::MonitorConfig{},
                                  models().catalog,
                                  models().automataCopy());
    for (const logging::LogRecord &record : dataset.stream)
        monitor.feed(record);
    monitor.finish();
    EXPECT_TRUE(monitor.finish().empty());
    EXPECT_TRUE(monitor.finish().empty());
}

TEST(Robustness, InterleavedMonitorsAreIndependent)
{
    // Two monitors over the same stream must not interfere (no hidden
    // global state anywhere in the checking stack).
    eval::DatasetConfig config;
    config.users = 2;
    config.tasksPerUser = 8;
    config.seed = 101;
    eval::GeneratedDataset dataset = eval::generateDataset(config);

    core::WorkflowMonitor a(core::MonitorConfig{}, models().catalog,
                            models().automataCopy());
    core::WorkflowMonitor b(core::MonitorConfig{}, models().catalog,
                            models().automataCopy());
    std::size_t accepted_a = 0;
    std::size_t accepted_b = 0;
    for (const logging::LogRecord &record : dataset.stream) {
        for (const core::MonitorReport &report : a.feed(record)) {
            if (report.event.kind == core::CheckEventKind::Accepted)
                ++accepted_a;
        }
        for (const core::MonitorReport &report : b.feed(record)) {
            if (report.event.kind == core::CheckEventKind::Accepted)
                ++accepted_b;
        }
    }
    EXPECT_EQ(accepted_a, accepted_b);
    EXPECT_EQ(a.stats().decisive, b.stats().decisive);
}
