/**
 * @file
 * Google-benchmark microbenchmarks for the hot paths of the checking
 * pipeline: template extraction, identifier-set operations, automaton
 * transitions, mining, and end-to-end per-message monitoring cost.
 */

#include <benchmark/benchmark.h>

#include "common/uuid.hpp"
#include "core/mining/dependency_miner.hpp"
#include "core/mining/model_builder.hpp"
#include "core/monitor/report_json.hpp"
#include "eval/accuracy_harness.hpp"
#include "eval/modeling_harness.hpp"
#include "logging/log_codec.hpp"
#include "logging/variable_extractor.hpp"
#include "obs/flight_recorder.hpp"

using namespace cloudseer;

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

const eval::GeneratedDataset &
dataset()
{
    static eval::GeneratedDataset generated = [] {
        eval::DatasetConfig config;
        config.users = 4;
        config.tasksPerUser = 40;
        config.seed = 77;
        return eval::generateDataset(config);
    }();
    return generated;
}

/** A nova-api request line: two UUIDs, an IP and three numbers. */
const std::string kBody =
    "[req-11111111-2222-3333-4444-555555555555] 10.1.2.3 "
    "\"POST /v2/aaaaaaaa-bbbb-cccc-dddd-eeeeeeeeeeee/servers "
    "HTTP/1.1\" status: 202 len: 1748";

std::string
wireLine()
{
    logging::LogRecord record;
    record.timestamp = 3661.25;
    record.node = "controller";
    record.service = "nova-api";
    record.body = kBody;
    return logging::encodeLogLine(record);
}

void
BM_DecodeLogLine(benchmark::State &state)
{
    const std::string line = wireLine();
    for (auto _ : state)
        benchmark::DoNotOptimize(logging::decodeLogLine(line));
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_DecodeLogLine);

void
BM_VariableExtraction(benchmark::State &state)
{
    logging::VariableExtractor extractor;
    std::string templ;
    std::vector<logging::VariableRef> vars;
    for (auto _ : state) {
        benchmark::DoNotOptimize(extractor.scan(kBody, templ, vars));
        benchmark::DoNotOptimize(templ.data());
        benchmark::DoNotOptimize(vars.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_VariableExtraction);

void
BM_FrontEndLine(benchmark::State &state)
{
    // The monitor's per-line front end: wire decode, scan, catalog
    // lookup, and interning of the identifiers (numbers excluded).
    const std::string line = wireLine();
    const eval::ModeledSystem &system = models();
    logging::VariableExtractor extractor;
    std::string templ;
    std::vector<logging::VariableRef> vars;
    extractor.scan(kBody, templ, vars);
    system.catalog->intern("nova-api", templ);
    logging::IdentifierInterner interner;
    std::vector<logging::IdToken> tokens;
    for (auto _ : state) {
        std::optional<logging::LogRecord> record =
            logging::decodeLogLine(line);
        std::uint64_t hash = extractor.scan(record->body, templ, vars);
        benchmark::DoNotOptimize(
            system.catalog->find(record->service, templ, hash));
        tokens.clear();
        for (const logging::VariableRef &var : vars) {
            if (var.kind != logging::VariableKind::Number)
                tokens.push_back(interner.intern(var.text));
        }
        benchmark::DoNotOptimize(tokens.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FrontEndLine);

void
BM_IdentifierSetOverlap(benchmark::State &state)
{
    common::Rng rng(1);
    logging::IdentifierInterner interner;
    std::vector<logging::IdToken> pool;
    for (int i = 0; i < 24; ++i)
        pool.push_back(interner.intern(common::makeUuid(rng)));
    core::IdentifierSet set(pool);
    std::vector<logging::IdToken> probe = core::IdentifierSet::dedupSorted(
        {pool[3], pool[9], interner.intern(common::makeUuid(rng))});
    for (auto _ : state) {
        benchmark::DoNotOptimize(set.overlap(probe));
        benchmark::DoNotOptimize(set.symmetricDifference(probe));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IdentifierSetOverlap);

void
BM_IdentifierIntern(benchmark::State &state)
{
    common::Rng rng(2);
    std::vector<std::string> ids;
    for (int i = 0; i < 256; ++i)
        ids.push_back(common::makeUuid(rng));
    logging::IdentifierInterner interner;
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(interner.intern(ids[i % ids.size()]));
        ++i;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_IdentifierIntern);

void
BM_TemplateCatalogFind(benchmark::State &state)
{
    const eval::ModeledSystem &system = models();
    logging::VariableExtractor extractor;
    const std::string body =
        "[req-11111111-2222-3333-4444-555555555555] starting boot";
    logging::ParsedBody parsed = extractor.parse(body);
    system.catalog->intern("nova", parsed.templateText);
    for (auto _ : state) {
        // Hashes the template here; the monitor reuses scan's hash.
        benchmark::DoNotOptimize(
            system.catalog->find("nova", parsed.templateText));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TemplateCatalogFind);

void
BM_AutomatonWalk(benchmark::State &state)
{
    const core::TaskAutomaton &boot = models().automata[0];
    // One full accepting walk through the boot automaton per iteration.
    std::vector<logging::TemplateId> order;
    {
        core::AutomatonInstance probe(&boot);
        while (!probe.accepting()) {
            auto expected = probe.expectedTemplates();
            order.push_back(expected.front());
            probe.consume(expected.front());
        }
    }
    for (auto _ : state) {
        core::AutomatonInstance instance(&boot);
        for (logging::TemplateId tpl : order)
            benchmark::DoNotOptimize(instance.consume(tpl));
        benchmark::DoNotOptimize(instance.accepting());
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * order.size()));
}
BENCHMARK(BM_AutomatonWalk);

void
BM_TransitiveReduction(benchmark::State &state)
{
    int n = static_cast<int>(state.range(0));
    std::vector<std::pair<int, int>> order;
    for (int a = 0; a < n; ++a)
        for (int b = a + 1; b < n; ++b)
            order.emplace_back(a, b);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::transitiveReduction(n, order));
    }
}
BENCHMARK(BM_TransitiveReduction)->Arg(10)->Arg(23)->Arg(40);

void
BM_MineBootDependencies(benchmark::State &state)
{
    // Mining cost over the run count (the modeling loop's inner step).
    auto catalog = std::make_shared<logging::TemplateCatalog>();
    core::TaskModeler modeler(*catalog);
    sim::SimConfig sim_config;
    sim_config.enableNoise = false;
    sim::Simulation simulation(sim_config, 5);
    sim::UserProfile user = simulation.makeUser();
    std::vector<core::TemplateSequence> runs;
    std::size_t cursor = 0;
    for (int r = 0; r < static_cast<int>(state.range(0)); ++r) {
        sim::VmHandle vm = simulation.makeVm();
        simulation.submit(sim::TaskType::Boot, r * 30.0, user, vm);
        simulation.run();
        std::vector<logging::LogRecord> window(
            simulation.records().begin() + static_cast<long>(cursor),
            simulation.records().end());
        cursor = simulation.records().size();
        runs.push_back(modeler.toTemplateSequence(window));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            modeler.buildAutomaton("boot", runs));
    }
}
BENCHMARK(BM_MineBootDependencies)->Arg(20)->Arg(100);

void
BM_MonitorFeedThroughput(benchmark::State &state)
{
    const eval::GeneratedDataset &data = dataset();
    core::MonitorConfig config;
    for (auto _ : state) {
        core::WorkflowMonitor monitor(config, models().catalog,
                                      models().automataCopy());
        for (const logging::LogRecord &record : data.stream)
            benchmark::DoNotOptimize(monitor.feed(record));
        benchmark::DoNotOptimize(monitor.finish());
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * data.stream.size()));
    state.counters["msgs"] =
        static_cast<double>(data.stream.size());
}
BENCHMARK(BM_MonitorFeedThroughput)->Unit(benchmark::kMillisecond);

void
BM_MonitorScalesWithUsers(benchmark::State &state)
{
    // Per-message checking cost as concurrency rises (the paper's
    // Table 6 x-axis, as a microbenchmark).
    eval::DatasetConfig config;
    config.users = static_cast<int>(state.range(0));
    config.tasksPerUser = 20;
    config.seed = 500 + static_cast<std::uint64_t>(state.range(0));
    eval::GeneratedDataset data = eval::generateDataset(config);

    core::MonitorConfig monitor_config;
    for (auto _ : state) {
        core::WorkflowMonitor monitor(monitor_config,
                                      models().catalog,
                                      models().automataCopy());
        for (const logging::LogRecord &record : data.stream)
            benchmark::DoNotOptimize(monitor.feed(record));
        benchmark::DoNotOptimize(monitor.finish());
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * data.stream.size()));
}
BENCHMARK(BM_MonitorScalesWithUsers)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

/** The monitor datasetReports() feeds; its interner resolves the
 *  reports' identifier tokens. */
core::WorkflowMonitor &
datasetMonitor()
{
    static core::WorkflowMonitor monitor(
        core::MonitorConfig{}, models().catalog, models().automataCopy());
    return monitor;
}

/** Every report the monitor makes on the benchmark dataset. */
const std::vector<core::MonitorReport> &
datasetReports()
{
    static std::vector<core::MonitorReport> reports = [] {
        std::vector<core::MonitorReport> out;
        core::WorkflowMonitor &monitor = datasetMonitor();
        for (const logging::LogRecord &record : dataset().stream)
            for (core::MonitorReport &report : monitor.feed(record))
                out.push_back(std::move(report));
        for (core::MonitorReport &report : monitor.finish())
            out.push_back(std::move(report));
        return out;
    }();
    return reports;
}

void
BM_ReportToJson(benchmark::State &state)
{
    // The verdict stage: one report to its JSON line, cycling through
    // the dataset's reports.
    const std::vector<core::MonitorReport> &reports = datasetReports();
    const logging::TemplateCatalog &catalog = *models().catalog;
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            core::reportToJson(reports[next], catalog));
        next = next + 1 == reports.size() ? 0 : next + 1;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ReportToJson);

void
BM_ForensicBundle(benchmark::State &state)
{
    // A bundle over a 199-line context, 53 new lines after the last
    // one, as on the perturbed paper workload: six busy nodes with
    // 32-line rings plus 7 quarantined lines, so about three quarters
    // of the context fragments are cached and the rest render afresh.
    constexpr std::size_t kBusyNodes = 6;
    constexpr std::size_t kLinesBetween = 53;
    const std::vector<logging::LogRecord> &stream = dataset().stream;
    std::vector<std::string> lines;
    for (const logging::LogRecord &record : stream)
        lines.push_back(logging::encodeLogLine(record));
    obs::FlightRecorderConfig config;
    config.perNodeCapacity = 32;
    obs::FlightRecorder recorder(config);
    const std::string nodes[kBusyNodes] = {"compute-1", "compute-2",
                                           "compute-3", "controller",
                                           "network",   "storage"};
    for (int i = 0; i < 7; ++i)
        recorder.record("<malformed>", stream[i].timestamp, "garbage");
    std::size_t at = 0;
    auto feed = [&](std::size_t count) {
        for (std::size_t i = 0; i < count; ++i, ++at) {
            const logging::LogRecord &record = stream[at % stream.size()];
            recorder.record(nodes[at % kBusyNodes], record.timestamp,
                            lines[at % stream.size()]);
        }
    };
    feed(kBusyNodes * config.perNodeCapacity);

    const std::vector<core::MonitorReport> &reports = datasetReports();
    const logging::TemplateCatalog &catalog = *models().catalog;
    const logging::IdentifierInterner &interner =
        datasetMonitor().interner();
    std::size_t next = 0;
    std::size_t reserve = 0;
    for (auto _ : state) {
        feed(kLinesBetween);
        std::string out;
        out.reserve(reserve);
        core::appendBundleJson(out, reports[next], catalog, interner,
                               recorder);
        reserve = std::max(reserve, out.size());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
        next = next + 1 == reports.size() ? 0 : next + 1;
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    state.counters["context_lines"] =
        static_cast<double>(recorder.context().size());
    state.counters["bundle_bytes"] = static_cast<double>(reserve);
}
BENCHMARK(BM_ForensicBundle);

void
BM_StreamMerge(benchmark::State &state)
{
    const eval::GeneratedDataset &data = dataset();
    collect::ShippingConfig config;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            collect::mergeStream(data.stream, config));
    }
    state.SetItemsProcessed(static_cast<int64_t>(
        state.iterations() * data.stream.size()));
}
BENCHMARK(BM_StreamMerge)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
