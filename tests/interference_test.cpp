/**
 * @file
 * Tests for seer-prove, the static interference & ambiguity analysis
 * (DESIGN.md §15): injected cross-task ambiguity raises SL020/SL021,
 * the growth bound (SL022) and dead-end anchors (SL023) fire on
 * constructed models, the golden bundles pass the gate, the
 * AmbiguityCertificate round-trips through model_io, and — the
 * acceptance property — the checker's certified fast path is
 * bit-identical to the reference path on adversarial identifier
 * streams and perturbed multi-seed wire streams.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/interference.hpp"
#include "collect/stream_perturber.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/mining/model_builder.hpp"
#include "core/mining/model_io.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/accuracy_harness.hpp"
#include "eval/modeling_harness.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::core;
using cloudseer::analysis::AmbiguityCertificate;
using cloudseer::analysis::Diagnostic;
using cloudseer::analysis::InterferenceOptions;
using cloudseer::analysis::InterferenceResult;
using cloudseer::analysis::LintReport;
using cloudseer::analysis::Severity;
using cloudseer::analysis::SignatureIdClass;
using cloudseer::analysis::SignatureVerdictKind;
using cloudseer::testutil::LetterCatalog;
using cloudseer::testutil::internIds;
using cloudseer::testutil::makeLetterAutomaton;
using cloudseer::testutil::makeMessage;

namespace {

/** Count findings with the given ID at the given severity. */
std::size_t
countId(const LintReport &report, const std::string &id,
        Severity severity)
{
    std::size_t n = 0;
    for (const Diagnostic *diagnostic : report.withId(id)) {
        if (diagnostic->severity == severity)
            ++n;
    }
    return n;
}

/**
 * The injected-ambiguity fixture: two tasks sharing an
 * identifier-free two-step template chain S -> T. Nothing separates
 * the tasks (no identifiers, same templates, same order), so the
 * product walk must find joint ambiguous runs (SL020), the collision
 * scan inseparable sharing (SL021), and the growth bound a
 * multiplicative chain (SL022).
 */
std::vector<TaskAutomaton>
interferingPair(LetterCatalog &letters)
{
    std::vector<TaskAutomaton> bundle;
    bundle.push_back(makeLetterAutomaton(letters, "alpha", {"S", "T"},
                                         {{"S", "T"}}));
    bundle.push_back(makeLetterAutomaton(letters, "beta", {"S", "T"},
                                         {{"S", "T"}}));
    return bundle;
}

/** A chain automaton over fresh uuid-separated templates. */
TaskAutomaton
uuidChain(logging::TemplateCatalog &catalog, const std::string &name,
          const std::vector<std::string> &steps)
{
    std::vector<EventNode> events;
    std::vector<DependencyEdge> edges;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        events.push_back({catalog.intern("svc", steps[i] + " <uuid>"), 0});
        if (i > 0) {
            edges.push_back({static_cast<int>(i) - 1,
                             static_cast<int>(i), false});
        }
    }
    return TaskAutomaton(name, std::move(events), std::move(edges));
}

} // namespace

// --- injected ambiguity (the tentpole acceptance case) ------------------

TEST(SeerProve, InjectedAmbiguityRaisesSL020AndSL021)
{
    LetterCatalog letters;
    std::vector<TaskAutomaton> bundle = interferingPair(letters);
    InterferenceResult result =
        analysis::analyzeInterference(bundle, *letters.catalog);

    // Both shared templates are identifier-free, so the joint runs
    // are inseparable: SL020 at Warning, SL021 at Warning per shared
    // template.
    EXPECT_GE(countId(result.report, "SL020", Severity::Warning), 1u);
    EXPECT_EQ(countId(result.report, "SL021", Severity::Warning), 2u);
    EXPECT_FALSE(result.report.hasErrors());

    // Nothing certifies: every signature is shared and unidentified.
    EXPECT_EQ(result.certificate.certifiedCount(), 0u);
    for (const auto &verdict : result.certificate.verdicts)
        EXPECT_NE(verdict.kind,
                  SignatureVerdictKind::CertifiedUnambiguous);
}

TEST(SeerProve, SL022FlagsMultiplicativeGrowthChain)
{
    LetterCatalog letters;
    std::vector<TaskAutomaton> bundle = interferingPair(letters);
    InterferenceResult result =
        analysis::analyzeInterference(bundle, *letters.catalog);

    // S -> T is a directed path of two inseparable-shared events in
    // each automaton: one SL022 per automaton, with a multiplicative
    // bound of at least sites(S) x sites(T) = 4.
    ASSERT_EQ(countId(result.report, "SL022", Severity::Warning), 2u);
    for (const Diagnostic *finding : result.report.withId("SL022"))
        EXPECT_GE(finding->metrics.at("bound"), 4.0);
}

TEST(SeerProve, SL023FlagsMidstreamDivergenceAnchor)
{
    // B is a non-initial event of alpha and the *initial* event of
    // beta: recovery (b) at B forks a fresh beta hypothesis that can
    // never be separated from alpha's own B (no identifiers).
    LetterCatalog letters;
    std::vector<TaskAutomaton> bundle;
    bundle.push_back(makeLetterAutomaton(letters, "alpha", {"A", "B"},
                                         {{"A", "B"}}));
    bundle.push_back(makeLetterAutomaton(letters, "beta", {"B", "C"},
                                         {{"B", "C"}}));
    InterferenceResult result =
        analysis::analyzeInterference(bundle, *letters.catalog);
    EXPECT_GE(countId(result.report, "SL023", Severity::Warning), 1u);
}

TEST(SeerProve, UuidSeparatedTemplatesCertify)
{
    logging::TemplateCatalog catalog;
    std::vector<TaskAutomaton> bundle;
    bundle.push_back(
        uuidChain(catalog, "boot", {"boot begin", "boot end"}));
    bundle.push_back(
        uuidChain(catalog, "stop", {"stop begin", "stop end"}));
    InterferenceResult result =
        analysis::analyzeInterference(bundle, catalog);

    EXPECT_TRUE(result.report.diagnostics.empty())
        << result.report.toText();
    EXPECT_EQ(result.certificate.verdicts.size(), 4u);
    EXPECT_EQ(result.certificate.certifiedCount(), 4u);
    for (const auto &verdict : result.certificate.verdicts)
        EXPECT_TRUE(result.certificate.certified(verdict.tpl));
}

TEST(SeerProve, TemplateClassification)
{
    EXPECT_EQ(analysis::classifyTemplate("instance <uuid> booted", false),
              SignatureIdClass::Instance);
    EXPECT_EQ(analysis::classifyTemplate("request from <ip>", false),
              SignatureIdClass::SharedOnly);
    EXPECT_EQ(analysis::classifyTemplate("worker pool drained", false),
              SignatureIdClass::None);
    EXPECT_EQ(analysis::classifyTemplate("retry attempt <num>", false),
              SignatureIdClass::None);
    EXPECT_EQ(analysis::classifyTemplate("retry attempt <num>", true),
              SignatureIdClass::Instance);
}

// --- diagnostic catalog parity ------------------------------------------

TEST(SeerProve, CatalogResolvesEveryProveId)
{
    for (const char *id : {"SL020", "SL021", "SL022", "SL023"}) {
        const analysis::DiagnosticInfo *info = analysis::diagnosticInfo(id);
        ASSERT_NE(info, nullptr) << id;
        EXPECT_NE(std::string(info->title), "");
        EXPECT_NE(std::string(info->rationale), "");
        EXPECT_EQ(info->maxSeverity, Severity::Warning);
    }

    // Every finding the analysis emits resolves in the catalog and
    // respects the catalog's severity ceiling (seer_lint --list and
    // --explain are driven from the same table, so this is the
    // catalog-drift guard).
    LetterCatalog letters;
    std::vector<TaskAutomaton> bundle = interferingPair(letters);
    bundle.push_back(makeLetterAutomaton(letters, "gamma", {"T", "U"},
                                         {{"T", "U"}}));
    InterferenceResult result =
        analysis::analyzeInterference(bundle, *letters.catalog);
    ASSERT_FALSE(result.report.diagnostics.empty());
    for (const Diagnostic &diagnostic : result.report.diagnostics) {
        const analysis::DiagnosticInfo *info =
            analysis::diagnosticInfo(diagnostic.id);
        ASSERT_NE(info, nullptr) << diagnostic.id;
        EXPECT_LE(static_cast<int>(diagnostic.severity),
                  static_cast<int>(info->maxSeverity))
            << diagnostic.id;
    }
}

// --- mine-time hook -----------------------------------------------------

TEST(SeerProve, VerifierFlagsInterferingPairAtMineTime)
{
    LetterCatalog letters;
    std::vector<TaskAutomaton> bundle = interferingPair(letters);
    auto verifier = analysis::makeInterferenceVerifier();

    // First automaton alone interferes with nothing.
    EXPECT_TRUE(verifier(bundle[0], *letters.catalog).empty());

    // The second shares its whole signature: findings name SL02x.
    std::vector<std::string> findings =
        verifier(bundle[1], *letters.catalog);
    ASSERT_FALSE(findings.empty());
    bool mentions_prove = false;
    for (const std::string &finding : findings) {
        if (finding.find("SL02") != std::string::npos)
            mentions_prove = true;
    }
    EXPECT_TRUE(mentions_prove) << findings.front();
}

// --- certificate persistence (model_io) ---------------------------------

TEST(SeerProveCertificate, RoundTripsThroughModelIo)
{
    logging::TemplateCatalog catalog;
    std::vector<TaskAutomaton> bundle;
    bundle.push_back(
        uuidChain(catalog, "boot", {"boot begin", "boot end"}));

    InterferenceResult result =
        analysis::analyzeInterference(bundle, catalog);
    result.certificate.modelFingerprint = 0xfeedbeefu;

    std::ostringstream out;
    saveModels(out, catalog, bundle, {}, result.certificate.toRecord());
    std::istringstream in(out.str());
    auto loaded = loadModels(in);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_TRUE(loaded->certificate.present);
    EXPECT_EQ(loaded->certificate.fingerprint, 0xfeedbeefu);
    EXPECT_EQ(loaded->certificate.verdicts.size(),
              result.certificate.verdicts.size());

    auto reloaded_opt =
        AmbiguityCertificate::fromRecord(loaded->certificate);
    ASSERT_TRUE(reloaded_opt.has_value());
    const AmbiguityCertificate &reloaded = *reloaded_opt;
    EXPECT_EQ(reloaded.certifiedCount(),
              result.certificate.certifiedCount());
    // Template ids can be remapped on load; compare through the
    // certified() view over the loaded catalog rather than raw ids.
    std::size_t certified_loaded = 0;
    for (logging::TemplateId tpl = 0; tpl < loaded->catalog->size();
         ++tpl)
        certified_loaded += reloaded.certified(tpl) ? 1u : 0u;
    EXPECT_EQ(certified_loaded, result.certificate.certifiedCount());
}

TEST(SeerProveCertificate, LegacyFormatLoadsWithoutCertificate)
{
    logging::TemplateCatalog catalog;
    std::vector<TaskAutomaton> bundle;
    bundle.push_back(
        uuidChain(catalog, "boot", {"boot begin", "boot end"}));

    std::ostringstream out;
    saveModels(out, catalog, bundle, {});
    std::istringstream in(out.str());
    auto loaded = loadModels(in);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_FALSE(loaded->certificate.present);
    EXPECT_TRUE(loaded->certificate.verdicts.empty());

    // An absent certificate writes a byte-identical legacy file.
    std::ostringstream legacy;
    saveModels(legacy, catalog, bundle, {}, core::CertificateRecord{});
    EXPECT_EQ(legacy.str(), out.str());
}

// --- golden bundles (the CI gate) ---------------------------------------

namespace {

InterferenceResult
proveGoldenFile(const std::string &relative)
{
    std::string path =
        std::string(CLOUDSEER_SOURCE_DIR) + "/" + relative;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    auto bundle = loadModels(in);
    EXPECT_TRUE(bundle.has_value()) << "unparseable bundle " << path;
    InterferenceOptions options;
    options.maxForkFanout = kDefaultMaxForkFanout;
    return analysis::analyzeInterference(bundle->automata,
                                         *bundle->catalog, options);
}

} // namespace

TEST(SeerProveGolden, HandcraftedBundleCleanAndFullyCertified)
{
    InterferenceResult result =
        proveGoldenFile("tests/golden/handcrafted.model");
    EXPECT_TRUE(result.report.diagnostics.empty())
        << result.report.toText();
    EXPECT_GT(result.certificate.verdicts.size(), 0u);
    EXPECT_EQ(result.certificate.certifiedCount(),
              result.certificate.verdicts.size())
        << "handcrafted templates are all uuid-separated";
}

TEST(SeerProveGolden, MinedBundlePassesTheWerrorGate)
{
    InterferenceResult result =
        proveGoldenFile("tests/golden/mined_tasks.model");
    EXPECT_FALSE(result.report.hasErrors()) << result.report.toText();
    EXPECT_EQ(result.report.count(Severity::Warning), 0u)
        << result.report.toText();
    // Most mined signatures are uuid-separated; a healthy majority
    // certifies (the exact count is pinned by the CLI golden test).
    EXPECT_GT(result.certificate.certifiedCount(),
              result.certificate.verdicts.size() / 2);
}

TEST(SeerProveGolden, FreshlyMinedModelsProveClean)
{
    // Mine a small bundle from scratch (reduced Table 2 pipeline) and
    // prove the miner's output: uuid-separated phases certify.
    logging::TemplateCatalog catalog;
    TaskModeler modeler(catalog);
    logging::TemplateId s1 = catalog.intern("svc", "phase one <uuid>");
    logging::TemplateId s2 = catalog.intern("svc", "phase two <uuid>");
    logging::TemplateId s3 = catalog.intern("svc", "phase three <uuid>");
    std::vector<TemplateSequence> runs(30, {s1, s2, s3});
    std::vector<TaskAutomaton> bundle;
    bundle.push_back(modeler.buildAutomaton("pipeline", runs));
    InterferenceResult result =
        analysis::analyzeInterference(bundle, catalog);
    EXPECT_TRUE(result.report.diagnostics.empty())
        << result.report.toText();
    EXPECT_EQ(result.certificate.certifiedCount(), 3u);
}

// --- the fast path is bit-identical -------------------------------------

namespace {

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

std::string
fingerprint(const MonitorReport &report)
{
    return fingerprint(report.event) +
           (report.endOfStream ? "|1" : "|0");
}

void
expectIdenticalEvents(const std::vector<CheckEvent> &fast,
                      const std::vector<CheckEvent> &slow,
                      const char *where, std::size_t step)
{
    ASSERT_EQ(fast.size(), slow.size())
        << where << " diverged at step " << step;
    for (std::size_t i = 0; i < fast.size(); ++i) {
        ASSERT_EQ(fingerprint(fast[i]), fingerprint(slow[i]))
            << where << " diverged at step " << step << " event " << i;
    }
}

void
expectIdenticalReports(const std::vector<MonitorReport> &fast,
                       const std::vector<MonitorReport> &slow,
                       const char *where, std::size_t step)
{
    ASSERT_EQ(fast.size(), slow.size())
        << where << " diverged at step " << step;
    for (std::size_t i = 0; i < fast.size(); ++i) {
        ASSERT_EQ(fingerprint(fast[i]), fingerprint(slow[i]))
            << where << " diverged at step " << step << " report " << i;
    }
}

void
expectIdenticalStats(const CheckerStats &a, const CheckerStats &b)
{
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.decisive, b.decisive);
    EXPECT_EQ(a.ambiguous, b.ambiguous);
    EXPECT_EQ(a.unmatched, b.unmatched);
    EXPECT_EQ(a.errorsReported, b.errorsReported);
    EXPECT_EQ(a.timeoutsReported, b.timeoutsReported);
    EXPECT_EQ(a.accepted, b.accepted);
}

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

} // namespace

TEST(SeerProveFastPath, CheckerDifferentialOnAdversarialIds)
{
    // Certified uuid chains fed a hostile stream: identifiers that
    // collide across instances, messages that bridge two instances'
    // identifiers, an identifier-less message, and enough concurrency
    // that rival groups exist while certified messages flow. The
    // certified checker must match the reference byte for byte.
    logging::TemplateCatalog catalog;
    std::vector<TaskAutomaton> bundle;
    bundle.push_back(uuidChain(catalog, "boot",
                               {"boot begin", "boot mid", "boot end"}));
    bundle.push_back(uuidChain(catalog, "stop",
                               {"stop begin", "stop mid", "stop end"}));
    InterferenceResult proof =
        analysis::analyzeInterference(bundle, catalog);
    std::vector<char> bits = proof.certificate.certifiedBits(catalog.size());
    ASSERT_EQ(proof.certificate.certifiedCount(), 6u);

    CheckerConfig config;
    InterleavedChecker fast(config, {&bundle[0], &bundle[1]});
    InterleavedChecker slow(config, {&bundle[0], &bundle[1]});
    fast.setCertifiedTemplates(bits);
    EXPECT_EQ(fast.certifiedTemplateCount(), 6u);
    EXPECT_EQ(slow.certifiedTemplateCount(), 0u);

    auto msg = [&](const std::string &step,
                   const std::vector<std::string> &ids,
                   logging::RecordId record, common::SimTime time) {
        CheckMessage message;
        message.tpl = catalog.intern("svc", step + " <uuid>");
        message.identifiers = internIds(ids);
        message.record = record;
        message.time = time;
        return message;
    };

    std::vector<CheckMessage> stream;
    logging::RecordId record = 1;
    common::SimTime now = 0.0;
    for (int user = 0; user < 6; ++user) {
        std::string base = (user % 2 == 0) ? "boot" : "stop";
        std::string id = "vm-" + std::to_string(user);
        for (const char *phase : {" begin", " mid", " end"}) {
            now += 0.05;
            std::vector<std::string> ids = {id};
            if (user == 2 && std::string(phase) == " mid")
                ids.push_back("vm-0"); // bridge two instances
            if (user == 3 && std::string(phase) == " mid")
                ids.clear(); // identifier-less: ambiguous selection
            if (user == 4)
                ids.push_back("shared-host"); // repeated shared token
            stream.push_back(msg(base + phase, ids, record++, now));
        }
    }

    for (std::size_t i = 0; i < stream.size(); ++i) {
        std::vector<CheckEvent> a = fast.feed(stream[i]);
        std::vector<CheckEvent> b = slow.feed(stream[i]);
        expectIdenticalEvents(a, b, "feed", i);
    }
    expectIdenticalEvents(fast.finish(now + 60.0),
                          slow.finish(now + 60.0), "finish",
                          stream.size());
    expectIdenticalStats(fast.stats(), slow.stats());
    EXPECT_GT(fast.stats().accepted, 0u)
        << "no acceptances; the differential is vacuous";
}

TEST(SeerProveFastPath, MonitorDifferentialOnPerturbedStreams)
{
    // The monitor-level property across perturbation seeds: a monitor
    // with the fast path armed (the default) is indistinguishable
    // from one with it off, on hostile wire streams.
    const eval::ModeledSystem &system = models();
    for (std::uint64_t seed : {11ull, 2024ull}) {
        eval::DatasetConfig dataset_config;
        dataset_config.users = 3;
        dataset_config.tasksPerUser = 20;
        dataset_config.seed = 900 + seed;
        eval::GeneratedDataset dataset =
            eval::generateDataset(dataset_config);

        collect::PerturbationConfig adversity;
        adversity.dropProbability = 0.02;
        adversity.duplicateProbability = 0.02;
        adversity.clockSkewMaxSeconds = 0.05;
        adversity.seed = seed;
        collect::StreamPerturber perturber(adversity);
        collect::PerturbedStream wire = perturber.apply(dataset.stream);
        ASSERT_FALSE(wire.lines.empty());

        MonitorConfig proved;
        proved.ingest = hardenedIngestDefaults();
        ASSERT_TRUE(proved.proveFastPath) << "fast path must default on";
        MonitorConfig reference = proved;
        reference.proveFastPath = false;

        WorkflowMonitor fast(proved, system.catalog,
                             system.automataCopy());
        WorkflowMonitor slow(reference, system.catalog,
                             system.automataCopy());

        for (std::size_t i = 0; i < wire.lines.size(); ++i) {
            std::vector<MonitorReport> a = fast.feedLine(wire.lines[i]);
            std::vector<MonitorReport> b = slow.feedLine(wire.lines[i]);
            expectIdenticalReports(a, b, "wire-feed", i);
        }
        expectIdenticalReports(fast.finish(), slow.finish(),
                               "wire-finish", wire.lines.size());
        expectIdenticalStats(fast.stats(), slow.stats());
    }
}

TEST(SeerProveFastPath, MonitorLoadReportCarriesProveFindings)
{
    // The load-time hook merges SL02x findings into loadLint() and
    // the injected-ambiguity pair still *starts* (warnings don't
    // gate), mirroring the seer-lint error-only refusal contract.
    LetterCatalog letters;
    std::vector<TaskAutomaton> bundle = interferingPair(letters);
    MonitorConfig config;
    WorkflowMonitor monitor(config, letters.catalog, std::move(bundle));
    EXPECT_FALSE(monitor.loadLint().hasErrors());
    EXPECT_FALSE(monitor.loadLint().withId("SL020").empty());
    EXPECT_FALSE(monitor.loadLint().withId("SL021").empty());
}
