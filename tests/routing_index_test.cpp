/**
 * @file
 * Tests for the interned-identifier routing index (DESIGN.md §9):
 * the identifier interner, posting-list maintenance across the full
 * group lifecycle (create, decisive expansion, fork, retire, zombie,
 * finish), and the differential guarantee — the indexed checker's
 * report sequence is bit-identical to the reference scan path on
 * clean and transport-perturbed streams, and its event stream (with
 * and without the seer-prove fast path) on a deep synthetic schedule
 * of a thousand tasks in flight.
 */

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/interference.hpp"
#include "collect/stream_perturber.hpp"
#include "common/rng.hpp"
#include "common/uuid.hpp"
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

/** Byte-exact fingerprint of everything a check event carries. */
std::string
fingerprint(const CheckEvent &event)
{
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
    return out;
}

/** fingerprint(event) plus the report's end-of-stream flag. */
std::string
fingerprint(const MonitorReport &report)
{
    std::string out = fingerprint(report.event);
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

// --- deep differential: 1000 tasks in flight ----------------------------

namespace {

constexpr int kChainLength = 8;

/** Linear workflow of kChainLength events whose `<uuid>` placeholder
 *  matches the schedule's identifiers, so seer-prove certifies every
 *  step and the fast path has a real surface. */
TaskAutomaton
chainAutomaton(logging::TemplateCatalog &catalog)
{
    std::vector<EventNode> events;
    std::vector<DependencyEdge> edges;
    for (int i = 0; i < kChainLength; ++i) {
        events.push_back(
            {catalog.intern("svc", "step-" + std::to_string(i) +
                                       " <uuid>"),
             0});
        if (i > 0)
            edges.push_back({i - 1, i, false});
    }
    return TaskAutomaton("chain", std::move(events), std::move(edges));
}

/**
 * Deterministic interleaved schedule: `inflight` tasks in flight at
 * all times, each with a unique pair of uuid identifiers; a finished
 * task is replaced at once by a fresh one, and the next message comes
 * from a uniformly drawn task.
 */
std::vector<CheckMessage>
makeSchedule(const TaskAutomaton &automaton, int inflight,
             int total_messages, std::uint64_t seed)
{
    logging::IdentifierInterner &interner =
        logging::IdentifierInterner::process();
    common::Rng rng(seed);
    struct Slot
    {
        std::vector<logging::IdToken> ids;
        int next = 0;
    };
    auto freshSlot = [&] {
        Slot slot;
        slot.ids = {interner.intern(common::makeUuid(rng)),
                    interner.intern(common::makeUuid(rng))};
        return slot;
    };
    std::vector<Slot> slots;
    for (int i = 0; i < inflight; ++i)
        slots.push_back(freshSlot());

    std::vector<CheckMessage> schedule;
    schedule.reserve(static_cast<std::size_t>(total_messages));
    logging::RecordId record = 1;
    double t = 0.0;
    while (static_cast<int>(schedule.size()) < total_messages) {
        Slot &slot = slots[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<int>(slots.size()) - 1))];
        CheckMessage message;
        message.tpl = automaton.event(slot.next).tpl;
        message.identifiers = slot.ids;
        message.record = record++;
        message.time = (t += 0.0001);
        schedule.push_back(std::move(message));
        if (++slot.next == kChainLength)
            slot = freshSlot();
    }
    return schedule;
}

/** Every event a checker emits over the schedule, finish included. */
std::vector<std::string>
replay(InterleavedChecker &checker,
       const std::vector<CheckMessage> &schedule)
{
    std::vector<std::string> events;
    for (const CheckMessage &message : schedule)
        for (const CheckEvent &event : checker.feed(message))
            events.push_back(fingerprint(event));
    for (const CheckEvent &event :
         checker.finish(schedule.back().time + 1.0))
        events.push_back(fingerprint(event));
    return events;
}

} // namespace

TEST(RoutingIndexDifferential, DeepChainScheduleEventsIdentical)
{
    logging::TemplateCatalog catalog;
    TaskAutomaton chain = chainAutomaton(catalog);
    analysis::InterferenceResult proof =
        analysis::analyzeInterference({chain}, catalog);
    ASSERT_EQ(proof.certificate.certifiedCount(),
              static_cast<std::size_t>(kChainLength));

    constexpr int kInflight = 1000;
    std::vector<CheckMessage> schedule =
        makeSchedule(chain, kInflight, 16000, kInflight * 7919u + 11u);

    CheckerConfig scan_config;
    scan_config.routingIndex = false;
    InterleavedChecker scan(scan_config, {&chain});
    CheckerConfig indexed_config;
    indexed_config.routingIndex = true;
    InterleavedChecker indexed(indexed_config, {&chain});
    InterleavedChecker proved(indexed_config, {&chain});
    proved.setCertifiedTemplates(
        proof.certificate.certifiedBits(catalog.size()));

    std::vector<std::string> scan_events = replay(scan, schedule);
    std::vector<std::string> indexed_events = replay(indexed, schedule);
    std::vector<std::string> proved_events = replay(proved, schedule);

    // The schedule really runs deep: it retires chains and ends with
    // every slot's task still open.
    EXPECT_GT(scan.stats().accepted, 1000u);
    EXPECT_GE(scan_events.size(), static_cast<std::size_t>(kInflight));
    ASSERT_EQ(indexed_events.size(), scan_events.size());
    ASSERT_EQ(proved_events.size(), scan_events.size());
    for (std::size_t i = 0; i < scan_events.size(); ++i) {
        ASSERT_EQ(indexed_events[i], scan_events[i]) << "event " << i;
        ASSERT_EQ(proved_events[i], scan_events[i]) << "event " << i;
    }
    expectIdenticalStats(indexed.stats(), scan.stats());
    expectIdenticalStats(proved.stats(), scan.stats());
    EXPECT_TRUE(indexed.indexConsistent());
    EXPECT_TRUE(proved.indexConsistent());
}

// --- exact-contents lookup: the lowest set id wins --------------------

namespace {

struct CheckedRun
{
    std::vector<std::string> events;
    CheckerStats stats;
};

/** Feed `messages` to a fresh checker, cross-checking the index after
 *  every message; `after(step, checker)` may assert on the state. */
CheckedRun
runChecked(bool routing_index, const TaskAutomaton &automaton,
           const std::vector<CheckMessage> &messages,
           const std::function<void(std::size_t,
                                    const InterleavedChecker &)> &after)
{
    CheckerConfig config;
    config.routingIndex = routing_index;
    InterleavedChecker checker(config, {&automaton});
    CheckedRun run;
    for (std::size_t step = 0; step < messages.size(); ++step) {
        for (const CheckEvent &event : checker.feed(messages[step]))
            run.events.push_back(fingerprint(event));
        EXPECT_TRUE(checker.indexConsistent()) << "step " << step;
        after(step, checker);
    }
    for (const CheckEvent &event : checker.finish(10.0))
        run.events.push_back(fingerprint(event));
    EXPECT_TRUE(checker.indexConsistent());
    run.stats = checker.stats();
    return run;
}

/** Scan and indexed checkers emit the same events and stats over
 *  `messages`, which fork exactly once. */
void
expectModesAgree(const TaskAutomaton &automaton,
                 const std::vector<CheckMessage> &messages,
                 const std::function<void(std::size_t,
                                          const InterleavedChecker &)>
                     &after)
{
    CheckedRun scan = runChecked(false, automaton, messages, after);
    CheckedRun indexed = runChecked(true, automaton, messages, after);
    EXPECT_EQ(indexed.events, scan.events);
    expectIdenticalStats(indexed.stats, scan.stats);
    EXPECT_EQ(scan.stats.ambiguous, 1u);
}

} // namespace

TEST(RoutingIndex, AliasedSetsReuseTheLowerId)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    // Intern y first so the contents {x, y} lead with y, whose posting
    // list ends up in descending set-id order.
    logging::IdToken y = internIds({"alias-y"})[0];
    logging::IdToken x = internIds({"alias-x"})[0];
    ASSERT_LT(y, x);

    std::vector<CheckMessage> messages = {
        makeMessage(letters, "A", {"alias-x"}, 1, 0.1), // G1 in S1 {x}
        makeMessage(letters, "A", {"alias-x", "alias-y"}, 2, 0.2), // S2
        makeMessage(letters, "P", {"alias-x"}, 3, 0.3),
        // Recovery (c) hands S to G1, whose sole-owner set expands in
        // place to {x, y}: S1 and S2 now alias.
        makeMessage(letters, "S", {"alias-x", "alias-y"}, 4, 0.4),
        // A new sequence on {x, y} joins S1, not S2…
        makeMessage(letters, "A", {"alias-x", "alias-y"}, 5, 0.5),
        // …so G2 (S2) and the new group (S1) are not one equivalence
        // class: P forks both, and the pool is S1 again.
        makeMessage(letters, "P", {"alias-x", "alias-y"}, 6, 0.6),
    };
    expectModesAgree(boot, messages,
                     [y](std::size_t step, const InterleavedChecker &c) {
                         if (step < 3)
                             return;
                         EXPECT_EQ(c.activeIdentifierSets(), 2u);
                         const std::vector<std::uint64_t> *list =
                             c.postingsFor(y);
                         ASSERT_NE(list, nullptr);
                         ASSERT_EQ(list->size(), 2u);
                         EXPECT_GT(list->front(), list->back());
                     });
}

TEST(RoutingIndex, IdentifierlessSequencesShareTheEmptySet)
{
    LetterCatalog letters;
    TaskAutomaton boot = bootAutomaton(letters);
    std::vector<CheckMessage> messages = {
        makeMessage(letters, "A", {}, 1, 0.1),
        makeMessage(letters, "A", {}, 2, 0.2), // second empty-set group
        makeMessage(letters, "P", {}, 3, 0.3), // forks both, pools {}
    };
    expectModesAgree(boot, messages,
                     [](std::size_t, const InterleavedChecker &c) {
                         EXPECT_EQ(c.activeIdentifierSets(), 1u);
                         EXPECT_EQ(c.postingTokens(), 0u);
                     });
}
