/**
 * @file
 * Tests for the interned-identifier routing index (DESIGN.md §9):
 * the identifier interner, posting-list maintenance across the full
 * group lifecycle (create, decisive expansion, fork, retire, zombie,
 * finish), and the differential guarantee — the indexed checker's
 * report sequence is bit-identical to the reference scan path on
 * clean and transport-perturbed streams.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "collect/stream_perturber.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/accuracy_harness.hpp"
#include "eval/modeling_harness.hpp"
#include "logging/identifier_interner.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::core;
using cloudseer::testutil::internIds;
using cloudseer::testutil::LetterCatalog;
using cloudseer::testutil::makeLetterAutomaton;
using cloudseer::testutil::makeMessage;

namespace {

/** Paper Figure 3 boot automaton over letters. */
TaskAutomaton
bootAutomaton(LetterCatalog &letters)
{
    return makeLetterAutomaton(letters, "boot",
                               {"A", "P", "S", "G", "T", "W"},
                               {{"A", "P"},
                                {"P", "S"},
                                {"S", "G"},
                                {"S", "T"},
                                {"G", "W"},
                                {"T", "W"}});
}

} // namespace

// --- IdentifierInterner -----------------------------------------------

TEST(IdentifierInterner, AssignsDenseCollisionFreeTokens)
{
    logging::IdentifierInterner interner;
    std::vector<logging::IdToken> tokens;
    for (int i = 0; i < 1000; ++i)
        tokens.push_back(interner.intern("id-" + std::to_string(i)));

    // Dense: first-seen order, no gaps, no collisions.
    for (std::size_t i = 0; i < tokens.size(); ++i)
        EXPECT_EQ(tokens[i], static_cast<logging::IdToken>(i));
    EXPECT_EQ(interner.size(), 1000u);

    // Stable: re-interning returns the original token.
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(interner.intern("id-" + std::to_string(i)),
                  tokens[static_cast<std::size_t>(i)]);
    }
    EXPECT_EQ(interner.size(), 1000u);

    // Round trip and non-interning lookup.
    EXPECT_EQ(interner.text(tokens[17]), "id-17");
    EXPECT_EQ(interner.find("id-42"), tokens[42]);
    EXPECT_EQ(interner.find("never-seen"), logging::kInvalidIdToken);
}

TEST(IdentifierInterner, ProcessInstanceIsShared)
{
    logging::IdentifierInterner &a = logging::IdentifierInterner::process();
    logging::IdentifierInterner &b = logging::IdentifierInterner::process();
    EXPECT_EQ(&a, &b);
    logging::IdToken token = a.intern("routing-index-test-shared");
    EXPECT_EQ(b.find("routing-index-test-shared"), token);
}

TEST(IdentifierInterner, ConcurrentInternsAgreeOnTokens)
{
    // The interner is the one structure several threads share (the
    // monitor's ingest thread and the pulse scrape thread reading
    // stats); its mutex is what the ThreadSanitizer job exercises.
    logging::IdentifierInterner interner;
    constexpr int kThreads = 4;
    constexpr int kValues = 500;
    std::vector<std::vector<logging::IdToken>> seen(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&interner, &seen, t] {
            for (int i = 0; i < kValues; ++i) {
                // Threads walk the shared values in different orders.
                int v = (i * (2 * t + 1)) % kValues;
                seen[t].push_back(
                    interner.intern("id-" + std::to_string(v)));
                (void)interner.stats();
            }
        });
    }
    for (std::thread &worker : workers)
        worker.join();

    EXPECT_EQ(interner.size(), static_cast<std::size_t>(kValues));
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kValues; ++i) {
            int v = (i * (2 * t + 1)) % kValues;
            EXPECT_EQ(seen[t][i],
                      interner.find("id-" + std::to_string(v)));
        }
    }
    logging::InternerStats stats = interner.stats();
    EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kValues));
    EXPECT_EQ(stats.hits,
              static_cast<std::uint64_t>(kValues * (kThreads - 1)));
}

// --- posting-list maintenance ------------------------------------------

TEST(RoutingIndex, PostingsFollowDecisiveExpansionAndAcceptRetire)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    InterleavedChecker checker(CheckerConfig{}, {&boot});

    std::vector<logging::IdToken> u1 = internIds({"seq-1"});
    std::vector<logging::IdToken> u2 = internIds({"seq-1", "user-1"});

    checker.feed(makeMessage(letters, "A", {"seq-1"}, 1, 0.1));
    ASSERT_TRUE(checker.indexConsistent());
    ASSERT_NE(checker.postingsFor(u1[0]), nullptr);
    EXPECT_EQ(checker.postingsFor(u1[0])->size(), 1u);
    EXPECT_EQ(checker.postingsFor(internIds({"user-1"})[0]), nullptr);

    // Decisive consumption expands the sole-owner set in place; the
    // new token gains a posting pointing at the same set.
    checker.feed(makeMessage(letters, "P", {"seq-1", "user-1"}, 2, 0.2));
    ASSERT_TRUE(checker.indexConsistent());
    ASSERT_NE(checker.postingsFor(u2[1]), nullptr);
    EXPECT_EQ(*checker.postingsFor(u2[1]), *checker.postingsFor(u2[0]));

    // Run the sequence to acceptance: the winner's lineage is pruned,
    // the set drains, and every posting goes with it.
    for (const char *letter : {"S", "G", "T", "W"}) {
        checker.feed(makeMessage(letters, letter, {"seq-1"}, 3, 0.3));
        ASSERT_TRUE(checker.indexConsistent()) << letter;
    }
    EXPECT_EQ(checker.activeGroups(), 0u);
    EXPECT_EQ(checker.activeIdentifierSets(), 0u);
    EXPECT_EQ(checker.postingTokens(), 0u);
    EXPECT_EQ(checker.postingsFor(u1[0]), nullptr);
}

TEST(RoutingIndex, PostingsSurviveForkMergeAndRivalPruning)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    InterleavedChecker checker(CheckerConfig{}, {&boot});

    // Two live sequences with distinct identifiers.
    checker.feed(makeMessage(letters, "A", {"seq-1"}, 1, 0.1));
    checker.feed(makeMessage(letters, "A", {"seq-2"}, 2, 0.2));
    ASSERT_TRUE(checker.indexConsistent());
    EXPECT_EQ(checker.activeGroups(), 2u);

    // An identifier-less message is ambiguous between them: case (2)
    // forks clones under one pooled identifier set. The pooled set
    // holds both sequences' tokens, so each token's posting list now
    // names two sets (the original and the pooled one).
    checker.feed(makeMessage(letters, "P", {}, 3, 0.3));
    ASSERT_TRUE(checker.indexConsistent());
    std::vector<logging::IdToken> s1 = internIds({"seq-1"});
    ASSERT_NE(checker.postingsFor(s1[0]), nullptr);
    EXPECT_EQ(checker.postingsFor(s1[0])->size(), 2u);

    // Finish one fork's sequence: acceptance prunes the winner's
    // lineage (including its original ancestor) and the rival clone.
    // The clones are state-equivalent, so which lineage wins is the
    // rng's pick — either way exactly one original hypothesis
    // survives, owning exactly one of the two tokens' postings.
    for (const char *letter : {"S", "G", "T", "W"})
        checker.feed(makeMessage(letters, letter, {"seq-1"}, 4, 0.4));
    ASSERT_TRUE(checker.indexConsistent());
    EXPECT_EQ(checker.activeGroups(), 1u);
    EXPECT_EQ(checker.activeIdentifierSets(), 1u);
    bool s1_live = checker.postingsFor(s1[0]) != nullptr;
    bool s2_live =
        checker.postingsFor(internIds({"seq-2"})[0]) != nullptr;
    EXPECT_NE(s1_live, s2_live);
}

TEST(RoutingIndex, PostingsAcrossZombieTransitionAndExpiry)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    CheckerConfig config;
    config.zombieAbsorption = true;
    InterleavedChecker checker(config, {&boot});

    checker.feed(makeMessage(letters, "A", {"seq-z"}, 1, 0.0));
    std::vector<logging::IdToken> z = internIds({"seq-z"});

    // Timeout: the group is reported and zombified, not erased — its
    // identifier set (and postings) must stay live to absorb strays.
    std::vector<CheckEvent> timeouts = checker.sweepTimeouts(100.0, 10.0);
    ASSERT_EQ(timeouts.size(), 1u);
    EXPECT_EQ(checker.activeGroups(), 1u);
    ASSERT_TRUE(checker.indexConsistent());
    ASSERT_NE(checker.postingsFor(z[0]), nullptr);

    // Long past the zombie horizon the group fades; the set drains.
    checker.sweepTimeouts(1000.0, 10.0);
    EXPECT_EQ(checker.activeGroups(), 0u);
    EXPECT_EQ(checker.postingTokens(), 0u);
    ASSERT_TRUE(checker.indexConsistent());
}

TEST(RoutingIndex, FinishClearsAllRoutingState)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    InterleavedChecker checker(CheckerConfig{}, {&boot});

    checker.feed(makeMessage(letters, "A", {"f-1"}, 1, 0.1));
    checker.feed(makeMessage(letters, "A", {"f-2"}, 2, 0.2));
    EXPECT_GT(checker.postingTokens(), 0u);

    checker.finish(1.0);
    EXPECT_EQ(checker.activeGroups(), 0u);
    EXPECT_EQ(checker.activeIdentifierSets(), 0u);
    EXPECT_EQ(checker.postingTokens(), 0u);
    EXPECT_TRUE(checker.indexConsistent());
}

// --- differential: indexed ≡ scan --------------------------------------

namespace {

const eval::ModeledSystem &
models()
{
    static eval::ModeledSystem system = [] {
        eval::ModelingConfig config;
        config.minRuns = 60;
        config.checkEvery = 20;
        config.stableChecks = 3;
        config.maxRuns = 300;
        return eval::buildModels(config);
    }();
    return system;
}

/** Byte-exact fingerprint of everything a report carries. */
std::string
fingerprint(const MonitorReport &report)
{
    const CheckEvent &event = report.event;
    std::string out;
    out += std::to_string(static_cast<int>(event.kind));
    out += '|';
    out += event.taskName;
    out += '|';
    for (const std::string &task : event.candidateTasks) {
        out += task;
        out += ',';
    }
    out += '|';
    for (logging::RecordId record : event.records) {
        out += std::to_string(record);
        out += ',';
    }
    out += '|';
    for (logging::TemplateId tpl : event.frontierTemplates) {
        out += std::to_string(tpl);
        out += ',';
    }
    out += '|';
    for (logging::TemplateId tpl : event.expectedTemplates) {
        out += std::to_string(tpl);
        out += ',';
    }
    char time_buf[32];
    std::snprintf(time_buf, sizeof(time_buf), "|%.9f|", event.time);
    out += time_buf;
    out += std::to_string(event.group);
    out += '|';
    out += report.endOfStream ? '1' : '0';
    return out;
}

MonitorConfig
monitorConfigFor(bool routing_index)
{
    MonitorConfig config;
    config.checker.routingIndex = routing_index;
    config.ingest = hardenedIngestDefaults();
    return config;
}

/** Feed both monitors a step's worth of reports and compare. */
void
expectIdenticalReports(const std::vector<MonitorReport> &indexed,
                       const std::vector<MonitorReport> &scan,
                       const char *where, std::size_t step)
{
    ASSERT_EQ(indexed.size(), scan.size())
        << where << " diverged at step " << step;
    for (std::size_t i = 0; i < indexed.size(); ++i) {
        ASSERT_EQ(fingerprint(indexed[i]), fingerprint(scan[i]))
            << where << " diverged at step " << step << " report " << i;
    }
}

void
expectIdenticalStats(const CheckerStats &a, const CheckerStats &b)
{
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.decisive, b.decisive);
    EXPECT_EQ(a.ambiguous, b.ambiguous);
    EXPECT_EQ(a.recoveredPassUnknown, b.recoveredPassUnknown);
    EXPECT_EQ(a.recoveredNewSequence, b.recoveredNewSequence);
    EXPECT_EQ(a.recoveredOtherSet, b.recoveredOtherSet);
    EXPECT_EQ(a.recoveredFalseDependency, b.recoveredFalseDependency);
    EXPECT_EQ(a.unmatched, b.unmatched);
    EXPECT_EQ(a.errorsReported, b.errorsReported);
    EXPECT_EQ(a.timeoutsReported, b.timeoutsReported);
    EXPECT_EQ(a.timeoutsSuppressed, b.timeoutsSuppressed);
    EXPECT_EQ(a.accepted, b.accepted);
}

} // namespace

TEST(RoutingIndexDifferential, CleanStreamReportsBitIdentical)
{
    const eval::ModeledSystem &system = models();
    eval::DatasetConfig dataset_config;
    dataset_config.users = 3;
    dataset_config.tasksPerUser = 40;
    dataset_config.seed = 2026;
    eval::GeneratedDataset dataset = eval::generateDataset(dataset_config);
    ASSERT_FALSE(dataset.stream.empty());

    WorkflowMonitor indexed(monitorConfigFor(true), system.catalog,
                            system.automataCopy());
    WorkflowMonitor scan(monitorConfigFor(false), system.catalog,
                         system.automataCopy());

    std::size_t total_reports = 0;
    for (std::size_t i = 0; i < dataset.stream.size(); ++i) {
        std::vector<MonitorReport> a = indexed.feed(dataset.stream[i]);
        std::vector<MonitorReport> b = scan.feed(dataset.stream[i]);
        expectIdenticalReports(a, b, "clean-feed", i);
        total_reports += a.size();
    }
    expectIdenticalReports(indexed.finish(), scan.finish(),
                           "clean-finish", dataset.stream.size());
    expectIdenticalStats(indexed.stats(), scan.stats());
    EXPECT_GT(indexed.stats().accepted, 0u)
        << "workload produced no acceptances; differential is vacuous";
    (void)total_reports;
}

TEST(RoutingIndexDifferential, PerturbedWireStreamReportsBitIdentical)
{
    const eval::ModeledSystem &system = models();
    eval::DatasetConfig dataset_config;
    dataset_config.users = 3;
    dataset_config.tasksPerUser = 30;
    dataset_config.seed = 777;
    eval::GeneratedDataset dataset = eval::generateDataset(dataset_config);

    collect::PerturbationConfig adversity;
    adversity.dropProbability = 0.02;
    adversity.duplicateProbability = 0.02;
    adversity.truncateProbability = 0.005;
    adversity.corruptProbability = 0.005;
    adversity.clockSkewMaxSeconds = 0.05;
    adversity.burstProbability = 0.0005;
    adversity.seed = 99;
    collect::StreamPerturber perturber(adversity);
    collect::PerturbedStream wire = perturber.apply(dataset.stream);
    ASSERT_FALSE(wire.lines.empty());

    WorkflowMonitor indexed(monitorConfigFor(true), system.catalog,
                            system.automataCopy());
    WorkflowMonitor scan(monitorConfigFor(false), system.catalog,
                         system.automataCopy());

    for (std::size_t i = 0; i < wire.lines.size(); ++i) {
        std::vector<MonitorReport> a = indexed.feedLine(wire.lines[i]);
        std::vector<MonitorReport> b = scan.feedLine(wire.lines[i]);
        expectIdenticalReports(a, b, "wire-feed", i);
    }
    expectIdenticalReports(indexed.finish(), scan.finish(),
                           "wire-finish", wire.lines.size());
    expectIdenticalStats(indexed.stats(), scan.stats());
}
