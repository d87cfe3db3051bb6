/**
 * @file
 * One process of the end-to-end benchmark: raw wire line in, verdict
 * out (perfbench/README.md). perfbench/run.py drives it; each mode runs
 * in a fresh process so every measured run starts with an empty
 * process-wide identifier interner.
 *
 * Every pass feeds a line the way the resilience harness does: decode
 * it, attach the record id the generator gave it, and feed the record;
 * a line that does not decode goes through feedLine and lands in the
 * quarantine. The id rides beside the line because the wire format has
 * none and the checker's pick among equivalent groups hashes it, so a
 * pass without ids would emit a different verdict stream than the one
 * that is scored (README.md, "Why the timed pass carries record ids").
 *
 *   prepare --workload W --seed S --dir D [--tasks-per-user N]
 *           [--wire-check 1]
 *       Generate the workload and write its lines and ids to
 *       D/lines.bin, then run the untimed reference passes: the scoring
 *       pass and the scan-path oracle (and, with --wire-check, a pure
 *       feedLine pass to count how far the id-less wire path diverges).
 *       Prints accuracy, failed share, stream facts and digests.
 *
 *   timed --workload W --dir D [--setup-reps R]
 *       Set up R times (model mining + monitor construction), then feed
 *       every line and render every report; prints throughput, per-line
 *       latency, memory gained and the report digest.
 *
 *   traced --workload W --dir D
 *       The same stream with a span around each call into a layer;
 *       prints per-layer costs and the digest, writes the spans to
 *       D/spans.bin.
 *
 * Each mode prints exactly one JSON object on its last stdout line.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <malloc.h>

#include "analysis/interference.hpp"
#include "collect/stream_perturber.hpp"
#include "core/monitor/report_json.hpp"
#include "eval/accuracy_harness.hpp"
#include "eval/modeling_harness.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/log_codec.hpp"
#include "vault/vaulted_monitor.hpp"

using namespace cloudseer;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

std::int64_t
nanosOf(Clock::time_point t)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
}

[[noreturn]] void
die(const std::string &why)
{
    std::fprintf(stderr, "perfbench_e2e: %s\n", why.c_str());
    std::exit(2);
}

// --- workloads -----------------------------------------------------------

/**
 * One benchmark workload. The shapes follow the paper's Table 3 groups
 * (perfbench/README.md says why each exists); `adverse` adds transport
 * faults on the wire and the production-style monitor.
 */
struct Workload
{
    const char *name;
    int users;
    bool singleUid;
    int tasksPerUser;
    bool adverse;
};

// Stream lengths: paper-multi fails only ~0.55% of its executions, and
// it takes ~64k executions to hold failed_share's spread across seeds
// near 14%; the other two fail far more often and run shorter.
const Workload kWorkloads[] = {
    {"paper-multi", 4, false, 16000, false},
    {"crowd-single", 32, true, 600, false},
    {"ops-adverse", 4, false, 3000, true},
};

const Workload &
workloadNamed(const std::string &name)
{
    for (const Workload &w : kWorkloads) {
        if (name == w.name)
            return w;
    }
    die("unknown workload '" + name + "'");
}

/** Checkpoint cadence of the vaulted monitor on the adverse workload. */
constexpr std::uint64_t kCheckpointEveryRecords = 10000;

/**
 * Transport adversity: bench_resilience's moderate mix with drop,
 * duplication, truncation, corruption and burst loss doubled, its
 * +-50 ms per-node clock skew, and no clock drift.
 *
 * - Doubling: a line that raises a problem report freezes a flight
 *   recorder bundle (~0.3-0.5 ms). At the moderate mix ~1.1% of lines do,
 *   so the p99 cut sat on their edge and p99 jumped 0.18-0.34 ms between
 *   runs of one seed; doubled, they are ~1.8% and p99 falls among them.
 * - Skew: at +-100 ms some seeds' node pairs reorder causally linked
 *   messages, and failed_share ranged 0.25-0.34 over seeds 1-10; at
 *   +-50 ms it stays within 0.25-0.27.
 * - Drift: 0.0005 s/s is harmless over bench_resilience's short runs,
 *   but over this stream's ~8 h of message time it can pull node clocks
 *   ~15 s apart.
 */
collect::PerturbationConfig
adversity(std::uint64_t seed)
{
    collect::PerturbationConfig config;
    config.dropProbability = 0.02;
    config.duplicateProbability = 0.02;
    config.truncateProbability = 0.004;
    config.corruptProbability = 0.004;
    config.burstProbability = 0.0004;
    config.clockSkewMaxSeconds = 0.05;
    config.seed = seed ^ 0xadd5ULL;
    return config;
}

/** Default config on the clean workloads; production-style on adverse. */
core::MonitorConfig
monitorConfigFor(const Workload &w)
{
    core::MonitorConfig config;
    if (w.adverse) {
        config.ingest = core::hardenedIngestDefaults();
        config.observability.metrics = true;
        config.observability.flightRecorder.perNodeCapacity = 32;
        // Pulse with httpPort left at -1: the rate and alert engines
        // run, but no socket is opened and no server thread starts.
        config.pulse.enabled = true;
    }
    return config;
}

/** The paper's Algorithm 2 reference: linear set scan, no fast path. */
core::MonitorConfig
oracleConfigFor(const Workload &w)
{
    core::MonitorConfig config = monitorConfigFor(w);
    config.checker.routingIndex = false;
    config.proveFastPath = false;
    config.observability = obs::ObsConfig{};
    config.pulse = obs::PulseConfig{};
    return config;
}

/** Offline models at the paper-scale modeling config. */
eval::ModeledSystem
mineModels()
{
    eval::ModelingConfig config;
    config.minRuns = 100;
    config.checkEvery = 20;
    config.stableChecks = 5;
    config.maxRuns = 800;
    return eval::buildModels(config);
}

// --- the generated stream ------------------------------------------------

/** Ground truth of one record, for scoring. */
struct Truth
{
    logging::ExecutionId execution = 0;
    std::string task;
};

struct Stream
{
    std::vector<std::string> lines;
    std::vector<logging::RecordId> ids; ///< record id behind each line
    std::unordered_map<logging::RecordId, Truth> truthOf;
    std::size_t tasks = 0;
    std::size_t executions = 0; ///< executions that emitted anything
    double interleaved2 = 0.0;  ///< share interleaved with >= 1 other
};

Stream
generate(const Workload &w, std::uint64_t seed, int tasks_per_user)
{
    eval::DatasetConfig config;
    config.users = w.users;
    config.singleUid = w.singleUid;
    config.tasksPerUser = tasks_per_user;
    config.seed = seed;
    // Healthy shipper with a small slow tail (the benches' checking
    // shipping model).
    config.shipping.tailProbability = 0.005;
    config.shipping.tailMin = 0.05;
    config.shipping.tailMax = 0.4;
    eval::GeneratedDataset dataset = eval::generateDataset(config);

    Stream out;
    out.tasks = dataset.totalTasks;
    for (const sim::ExecutionInfo &info : dataset.truth.executions())
        out.executions += info.anyEmission ? 1 : 0;
    out.interleaved2 = dataset.truth.interleavedFraction(2);
    for (const logging::LogRecord &record : dataset.stream)
        out.truthOf[record.id] = {record.truthExecution, record.truthTask};

    if (w.adverse) {
        collect::PerturbedStream wire =
            collect::StreamPerturber(adversity(seed)).apply(dataset.stream);
        out.lines = std::move(wire.lines);
        for (const logging::LogRecord &record : wire.records)
            out.ids.push_back(record.id);
    } else {
        for (const logging::LogRecord &record : dataset.stream) {
            out.lines.push_back(logging::encodeLogLine(record));
            out.ids.push_back(record.id);
        }
    }
    return out;
}

/** The benchmark input: wire lines, each with its generator record id. */
struct WireLines
{
    std::vector<std::string> lines;
    std::vector<logging::RecordId> ids;
};

void
writeLines(const std::string &path, const Stream &stream)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    std::uint64_t count = stream.lines.size();
    out.write(reinterpret_cast<const char *>(&count), sizeof(count));
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
        std::uint64_t id = stream.ids[i];
        std::uint32_t size =
            static_cast<std::uint32_t>(stream.lines[i].size());
        out.write(reinterpret_cast<const char *>(&id), sizeof(id));
        out.write(reinterpret_cast<const char *>(&size), sizeof(size));
        out.write(stream.lines[i].data(),
                  static_cast<std::streamsize>(size));
    }
    if (!out)
        die("cannot write " + path);
}

WireLines
readLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint64_t count = 0;
    if (!in.read(reinterpret_cast<char *>(&count), sizeof(count)))
        die("cannot read " + path + " (run prepare first)");
    WireLines out;
    out.lines.resize(count);
    out.ids.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t id = 0;
        std::uint32_t size = 0;
        in.read(reinterpret_cast<char *>(&id), sizeof(id));
        in.read(reinterpret_cast<char *>(&size), sizeof(size));
        out.ids[i] = id;
        out.lines[i].resize(size);
        in.read(out.lines[i].data(), static_cast<std::streamsize>(size));
    }
    if (!in)
        die(path + " is truncated");
    return out;
}

// --- verdicts --------------------------------------------------------------

/** Order-sensitive FNV-1a digest of the rendered report stream. */
struct Digest
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::uint64_t reports = 0;

    void
    add(const std::string &json)
    {
        for (char c : json)
            mix(static_cast<unsigned char>(c));
        mix('\n');
        ++reports;
    }

    std::string
    hex() const
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx-%llu",
                      static_cast<unsigned long long>(hash),
                      static_cast<unsigned long long>(reports));
        return buf;
    }

  private:
    void
    mix(unsigned char c)
    {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
};

/** A report rendered with its record ids zeroed, as the wire path has them. */
std::string
maskedJson(core::MonitorReport report, const logging::TemplateCatalog &catalog)
{
    std::fill(report.event.records.begin(), report.event.records.end(), 0);
    return core::reportToJson(report, catalog);
}

/** Outcome of scoring one report stream (paper §5.4). */
struct Score
{
    std::size_t acceptedCorrect = 0;
    std::size_t acceptedWrong = 0;
    std::size_t notAccepted = 0;
    double accuracy = 0.0;
    double failedShare = 0.0;
};

/**
 * The paper's §5.4 scoring, as eval::checkDataset applies it: an
 * accepted instance is correct when every record it consumed belongs
 * to an execution of the named task; it credits one still-uncredited
 * contributing execution (same-task mixing is undetectable in
 * principle). accuracy = 1 - notAccepted / interleaved sequences;
 * failedShare = notAccepted / sequences.
 */
Score
score(const std::vector<core::CheckEvent> &accepted, const Stream &stream)
{
    Score out;
    std::set<logging::ExecutionId> credited;
    for (const core::CheckEvent &event : accepted) {
        bool consistent = true;
        std::vector<logging::ExecutionId> contributors;
        for (logging::RecordId rid : event.records) {
            auto it = stream.truthOf.find(rid);
            if (it == stream.truthOf.end() || it->second.execution == 0 ||
                it->second.task != event.taskName) {
                consistent = false;
                break;
            }
            contributors.push_back(it->second.execution);
        }
        logging::ExecutionId credit = 0;
        if (consistent) {
            for (logging::ExecutionId e : contributors) {
                if (!credited.count(e)) {
                    credit = e;
                    break;
                }
            }
        }
        if (credit != 0) {
            credited.insert(credit);
            ++out.acceptedCorrect;
        } else {
            ++out.acceptedWrong;
        }
    }
    out.notAccepted = stream.executions - out.acceptedCorrect;
    double interleaved =
        stream.interleaved2 * static_cast<double>(stream.executions);
    out.accuracy = interleaved <= 0.0
                       ? 1.0
                       : 1.0 - static_cast<double>(out.notAccepted) /
                                   interleaved;
    out.failedShare = stream.executions == 0
                          ? 0.0
                          : static_cast<double>(out.notAccepted) /
                                static_cast<double>(stream.executions);
    return out;
}

// --- process facts -----------------------------------------------------------

/** A "VmXXX:" field of /proc/self/status, in KiB (0 when absent). */
long
procStatusKiB(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    std::size_t n = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, n, field) == 0 && line.size() > n &&
            line[n] == ':')
            return std::strtol(line.c_str() + n + 1, nullptr, 10);
    }
    return 0;
}

/** Reset the peak-RSS mark to the current RSS ("5" > clear_refs). */
bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

/** Minimal JSON object writer (numbers, strings, booleans). */
class JsonOut
{
  public:
    JsonOut &
    num(const std::string &key, double value)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return raw(key, buf);
    }

    JsonOut &
    count(const std::string &key, std::uint64_t value)
    {
        return raw(key, std::to_string(value));
    }

    JsonOut &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, "\"" + core::jsonEscape(value) + "\"");
    }

    JsonOut &
    flag(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }

    void
    print() const
    {
        std::printf("{%s}\n", body.c_str());
        std::fflush(stdout);
    }

  private:
    std::string body;

    JsonOut &
    raw(const std::string &key, const std::string &value)
    {
        if (!body.empty())
            body += ",";
        body += "\"" + key + "\":" + value;
        return *this;
    }
};

void
describeHost(JsonOut &out)
{
    out.count("nproc", std::thread::hardware_concurrency())
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("compiler", PERFBENCH_COMPILER);
}

/** Refuse a run whose process-wide interner is not empty. */
std::size_t
requireColdInterner()
{
    std::size_t size = logging::IdentifierInterner::process().size();
    if (size != 0) {
        die("interner starts warm (" + std::to_string(size) +
            " entries); every measured run needs a fresh process");
    }
    return size;
}

/**
 * Feed one benchmark input: decode the line and feed the record with its
 * generator id attached, or hand an undecodable line to feedLine so it
 * reaches the quarantine (the resilience harness's pattern). Works for
 * WorkflowMonitor and VaultedMonitor alike.
 */
template <typename Monitor>
std::vector<core::MonitorReport>
feedRecordOrLine(Monitor &monitor, const std::string &line,
                 logging::RecordId id)
{
    std::optional<logging::LogRecord> record = logging::decodeLogLine(line);
    if (!record)
        return monitor.feedLine(line);
    record->id = id;
    return monitor.feed(*record);
}

// --- prepare -----------------------------------------------------------------

/** FNV-1a of one rendered report (for position-wise comparison). */
std::uint64_t
reportHash(const std::string &json)
{
    Digest d;
    d.add(json);
    return d.hash;
}

/**
 * One untimed reference pass over the benchmark input, fed the way the
 * timed pass feeds it (feedRecordOrLine).
 */
struct ReferencePass
{
    Digest digest;
    std::vector<std::uint64_t> maskedHashes; ///< per report, ids zeroed
    std::vector<core::CheckEvent> accepted;
    std::size_t peakGroups = 0;
};

ReferencePass
referencePass(const core::MonitorConfig &config,
              const eval::ModeledSystem &models, const Stream &stream,
              bool keep_masked)
{
    ReferencePass out;
    core::WorkflowMonitor monitor(config, models.catalog,
                                  models.automataCopy());
    auto take = [&](std::vector<core::MonitorReport> reports) {
        for (core::MonitorReport &report : reports) {
            out.digest.add(core::reportToJson(report, *models.catalog));
            if (keep_masked) {
                out.maskedHashes.push_back(
                    reportHash(maskedJson(report, *models.catalog)));
            }
            if (report.event.kind == core::CheckEventKind::Accepted)
                out.accepted.push_back(std::move(report.event));
        }
    };
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
        take(feedRecordOrLine(monitor, stream.lines[i], stream.ids[i]));
        out.peakGroups = std::max(out.peakGroups, monitor.activeGroups());
    }
    take(monitor.finish());
    return out;
}

/**
 * Reports at which a pure feedLine pass (every record id 0, as the wire
 * delivers them) differs from the id-carrying pass with its ids masked:
 * differing positions plus any difference in length. Not a gate — it
 * measures how far the wire path's equivalence picks stray from the
 * scored ones.
 */
std::uint64_t
wireDivergence(const core::MonitorConfig &config,
               const eval::ModeledSystem &models, const Stream &stream,
               const std::vector<std::uint64_t> &masked)
{
    core::WorkflowMonitor monitor(config, models.catalog,
                                  models.automataCopy());
    std::vector<std::uint64_t> wire;
    auto take = [&](const std::vector<core::MonitorReport> &reports) {
        for (const core::MonitorReport &report : reports)
            wire.push_back(
                reportHash(core::reportToJson(report, *models.catalog)));
    };
    for (const std::string &line : stream.lines)
        take(monitor.feedLine(line));
    take(monitor.finish());
    std::size_t common = std::min(wire.size(), masked.size());
    std::uint64_t differ = std::max(wire.size(), masked.size()) - common;
    for (std::size_t i = 0; i < common; ++i)
        differ += wire[i] != masked[i] ? 1 : 0;
    return differ;
}

int
runPrepare(const Workload &w, std::uint64_t seed, int tasks_per_user,
           const std::string &dir, bool wire_check)
{
    Stream stream = generate(w, seed, tasks_per_user);
    writeLines(dir + "/lines.bin", stream);

    eval::ModeledSystem models = mineModels();
    ReferencePass scoring =
        referencePass(monitorConfigFor(w), models, stream, wire_check);
    ReferencePass oracle =
        referencePass(oracleConfigFor(w), models, stream, false);
    Score result = score(scoring.accepted, stream);

    JsonOut out;
    out.str("mode", "prepare")
        .str("workload", w.name)
        .count("seed", seed)
        .count("lines", stream.lines.size())
        .count("tasks", stream.tasks)
        .count("executions", stream.executions)
        .num("interleaved2", stream.interleaved2)
        .count("peak_groups", scoring.peakGroups)
        .count("accepted_correct", result.acceptedCorrect)
        .count("accepted_wrong", result.acceptedWrong)
        .count("not_accepted", result.notAccepted)
        .num("accuracy", result.accuracy)
        .num("failed_share", result.failedShare)
        .str("digest_scoring", scoring.digest.hex())
        .str("digest_oracle", oracle.digest.hex());
    if (wire_check) {
        out.count("wire_divergent_reports",
                  wireDivergence(monitorConfigFor(w), models, stream,
                                 scoring.maskedHashes));
    }
    describeHost(out);
    out.print();
    return 0;
}

// --- set-up ------------------------------------------------------------------

/** The monitor under test: bare on clean workloads, vaulted on adverse. */
struct MonitorUnderTest
{
    std::unique_ptr<core::WorkflowMonitor> bare;
    std::unique_ptr<vault::VaultedMonitor> vaulted;

    core::WorkflowMonitor &
    monitor()
    {
        return vaulted ? vaulted->monitor() : *bare;
    }

    std::vector<core::MonitorReport>
    feed(const logging::LogRecord &record)
    {
        return vaulted ? vaulted->feed(record) : bare->feed(record);
    }

    std::vector<core::MonitorReport>
    feedLine(const std::string &line)
    {
        return vaulted ? vaulted->feedLine(line) : bare->feedLine(line);
    }

    std::vector<core::MonitorReport>
    finish()
    {
        return vaulted ? vaulted->finish() : bare->finish();
    }
};

/**
 * Construct the monitor: lint, prove and certify the models; on the
 * adverse workload also recover the (empty) vault directory and take
 * its first checkpoint.
 */
MonitorUnderTest
constructMonitor(const Workload &w, const eval::ModeledSystem &models,
                 const std::string &vault_dir)
{
    MonitorUnderTest out;
    if (w.adverse) {
        std::filesystem::remove_all(vault_dir);
        vault::VaultConfig vault_config;
        vault_config.directory = vault_dir;
        vault_config.checkpointEveryRecords = kCheckpointEveryRecords;
        out.vaulted = std::make_unique<vault::VaultedMonitor>(
            vault_config, monitorConfigFor(w), models.catalog,
            models.automataCopy());
    } else {
        out.bare = std::make_unique<core::WorkflowMonitor>(
            monitorConfigFor(w), models.catalog, models.automataCopy());
    }
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- timed -------------------------------------------------------------------

int
runTimed(const Workload &w, const std::string &dir, int setup_reps)
{
    WireLines input = readLines(dir + "/lines.bin");
    const std::vector<std::string> &lines = input.lines;
    std::vector<std::uint32_t> lineNs(lines.size());
    const std::string vault_dir = dir + "/vault";

    // Set up several times and keep the last; the median is setup_s.
    // Each repetition mines from scratch and builds a fresh monitor.
    std::vector<double> setups;
    std::optional<eval::ModeledSystem> models;
    MonitorUnderTest mut;
    long rss_before_kib = 0;
    for (int rep = 0; rep < setup_reps; ++rep) {
        mut = MonitorUnderTest{};
        models.reset();
        Clock::time_point start = Clock::now();
        models = mineModels();
        double mining = secondsSince(start);
        if (rep + 1 == setup_reps) {
            // Memory gained counts from just before the last monitor
            // construction. Returning the heap freed by earlier set-ups
            // keeps their pages from hiding the monitor's growth, and
            // resetting the high-water mark forgets the miner's peak.
            malloc_trim(0);
            if (!resetPeakRss())
                die("cannot reset VmHWM via /proc/self/clear_refs");
            rss_before_kib = procStatusKiB("VmRSS");
        }
        start = Clock::now();
        mut = constructMonitor(w, *models, vault_dir);
        setups.push_back(mining + secondsSince(start));
    }
    const logging::TemplateCatalog &catalog = *models->catalog;
    std::size_t interner_start = requireColdInterner();

    Digest digest;
    std::uint64_t alerts = 0;
    Clock::time_point begin = Clock::now();
    Clock::time_point last = begin;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (const core::MonitorReport &report :
             feedRecordOrLine(mut, lines[i], input.ids[i]))
            digest.add(core::reportToJson(report, catalog));
        if (w.adverse)
            alerts += mut.monitor().drainAlertJson().size();
        Clock::time_point now = Clock::now();
        lineNs[i] = static_cast<std::uint32_t>(std::min<std::int64_t>(
            nanosOf(now) - nanosOf(last), UINT32_MAX));
        last = now;
    }
    for (const core::MonitorReport &report : mut.finish())
        digest.add(core::reportToJson(report, catalog));
    double wall = secondsSince(begin);
    long hwm_kib = procStatusKiB("VmHWM");

    std::vector<std::uint32_t> sorted = lineNs;
    auto quantileUs = [&](double q) {
        std::size_t k = std::min(
            sorted.size() - 1,
            static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
        std::nth_element(sorted.begin(), sorted.begin() + k, sorted.end());
        return sorted[k] / 1000.0;
    };
    std::uint64_t stalls = 0;
    std::uint32_t worst = 0;
    for (std::uint32_t ns : lineNs) {
        stalls += ns > 1000000 ? 1 : 0;
        worst = std::max(worst, ns);
    }

    JsonOut out;
    out.str("mode", "timed")
        .str("workload", w.name)
        .count("lines", lines.size())
        .count("interner_start", interner_start)
        .count("interner_end", logging::IdentifierInterner::process().size())
        .num("wall_s", wall)
        .num("throughput_lps", static_cast<double>(lines.size()) / wall)
        .num("feed_p50_us", quantileUs(0.50))
        .num("feed_p99_us", quantileUs(0.99))
        .num("feed_p999_us", quantileUs(0.999))
        .num("feed_max_us", worst / 1000.0)
        .count("latency_samples", lineNs.size())
        .count("stalls_1ms", stalls)
        .num("state_mb",
             static_cast<double>(hwm_kib - rss_before_kib) / 1024.0)
        .num("setup_s", median(setups))
        .count("setup_reps", setups.size())
        .count("alerts", alerts)
        .str("digest", digest.hex());
    describeHost(out);
    out.print();
    return 0;
}

// --- traced ------------------------------------------------------------------

/** Layers the traced run puts spans around. */
enum Layer : std::uint16_t
{
    kLine,           ///< root: one input line (or the end-of-stream flush)
    kDecode,         ///< logging::decodeLogLine
    kExtract,        ///< logging::VariableExtractor::parse
    kCatalog,        ///< logging::TemplateCatalog::find
    kIntern,         ///< logging::IdentifierInterner::intern
    kSweep,          ///< InterleavedChecker::sweepTimeouts
    kCheck,          ///< InterleavedChecker::feed
    kCheckerFinish,  ///< InterleavedChecker::finish
    kMonitorFeed,    ///< WorkflowMonitor::feed / feedLine
    kMonitorFinish,  ///< WorkflowMonitor::finish
    kWalAppend,      ///< vault::WriteAheadLedger::appendRecord / appendLine
    kCheckpoint,     ///< checkpoint: snapshot, write image, rotate ledger
    kRender,         ///< core::reportToJson
    kLayerCount
};

const char *const kLayerNames[kLayerCount] = {
    "line",           "logging.decode",  "logging.extract",
    "logging.catalog", "logging.intern", "checker.sweep",
    "checker.feed",   "checker.finish",  "monitor.feed",
    "monitor.finish", "vault.wal_append", "vault.checkpoint",
    "monitor.render",
};

/** One recorded span; parent indexes the span vector (-1 = root). */
struct Span
{
    std::int64_t start = 0; ///< ns since the traced run began
    std::uint32_t durNs = 0;
    std::int32_t parent = -1;
    std::uint32_t line = 0;
    std::uint16_t layer = kLine;
    std::uint16_t reserved = 0; ///< keeps the 24-byte record free of padding
};

/**
 * In-memory span recorder. Spans are laid end to end: each boundary
 * reads the clock once, closing one span as the next opens, and a line's
 * root span starts where the previous line's ended. So the layers tile
 * the traced wall time except where the bench marks its own bookkeeping
 * with skip(), which stays in the root's self time.
 */
class Tracer
{
  public:
    explicit Tracer(std::size_t expected)
    {
        spans.reserve(expected);
        mark = origin = Clock::now();
    }

    /** Open a line's root span at the last boundary. */
    void
    beginLine(std::uint32_t line)
    {
        lineIndex = line;
        root = static_cast<std::int32_t>(spans.size());
        spans.push_back({offset(mark), 0, -1, line, kLine});
    }

    /** Close the layer span that ran since the previous boundary. */
    void
    close(Layer layer)
    {
        Clock::time_point now = Clock::now();
        spans.push_back({offset(mark), durationNs(mark, now), root,
                         lineIndex, layer});
        mark = now;
    }

    /** Move the boundary without recording: bench-only work. */
    void
    skip()
    {
        mark = Clock::now();
    }

    /** Close the line's root span at the last boundary. */
    void
    endLine()
    {
        Span &span = spans[static_cast<std::size_t>(root)];
        span.durNs = static_cast<std::uint32_t>(
            std::min<std::int64_t>(offset(mark) - span.start, UINT32_MAX));
    }

    const std::vector<Span> &all() const { return spans; }

  private:
    std::vector<Span> spans;
    Clock::time_point origin;
    Clock::time_point mark;
    std::int32_t root = -1;
    std::uint32_t lineIndex = 0;

    std::int64_t
    offset(Clock::time_point t) const
    {
        return nanosOf(t) - nanosOf(origin);
    }

    static std::uint32_t
    durationNs(Clock::time_point a, Clock::time_point b)
    {
        return static_cast<std::uint32_t>(std::min<std::int64_t>(
            nanosOf(b) - nanosOf(a), UINT32_MAX));
    }
};

/** Per-layer totals from a span list. */
struct LayerTotals
{
    std::uint64_t calls[kLayerCount] = {};
    double selfNs[kLayerCount] = {};
    std::uint32_t maxNs[kLayerCount] = {};
    double wallNs = 0.0; ///< first line's start to the flush's end
};

LayerTotals
aggregate(const std::vector<Span> &spans)
{
    LayerTotals out;
    std::vector<double> childNs(spans.size(), 0.0);
    for (const Span &span : spans) {
        if (span.parent >= 0)
            childNs[static_cast<std::size_t>(span.parent)] += span.durNs;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        ++out.calls[span.layer];
        out.selfNs[span.layer] += span.durNs - childNs[i];
        out.maxNs[span.layer] = std::max(out.maxNs[span.layer], span.durNs);
        if (span.parent < 0) {
            out.wallNs = static_cast<double>(span.start + span.durNs -
                                             spans.front().start);
        }
    }
    return out;
}

/**
 * Span file: a text header (magic, one "index name" line per layer,
 * "records N"), then N raw Span records in host byte order.
 */
void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "PERFBENCH-SPANS 1\n";
    for (int i = 0; i < kLayerCount; ++i)
        out << i << " " << kLayerNames[i] << "\n";
    out << "records " << spans.size() << "\n";
    out.write(reinterpret_cast<const char *>(spans.data()),
              static_cast<std::streamsize>(spans.size() * sizeof(Span)));
}

/** Counters the traced pipelines gather beside the spans. */
struct TracedCounters
{
    Digest digest;
    std::uint64_t lines = 0;
    std::uint64_t catalogMisses = 0;
    std::uint64_t malformed = 0;
    std::uint64_t clamped = 0;
    std::size_t groupsPeak = 0;
    std::size_t idsetsPeak = 0;
    core::CheckerStats checker;
    core::IngestStats ingest;
    std::uint64_t walBytes = 0;
    std::vector<double> checkpointMs;
    std::vector<double> checkpointBytes;
    std::uint64_t snapshots = 0;
    std::uint64_t bundles = 0;
    std::uint64_t alerts = 0;
};

/**
 * Clean workloads: the bench calls each layer itself, in the order and
 * with the arguments WorkflowMonitor::feedLine uses under the default
 * config (no guards), over a checker built and certified the way the
 * monitor builds it.
 */
void
tracePipeline(const Workload &w, const eval::ModeledSystem &models,
              const WireLines &input, Tracer &tracer, TracedCounters &c)
{
    const std::vector<std::string> &lines = input.lines;
    const core::MonitorConfig config = monitorConfigFor(w);
    const logging::TemplateCatalog &catalog = *models.catalog;
    std::vector<core::TaskAutomaton> specs = models.automataCopy();
    std::vector<const core::TaskAutomaton *> pointers;
    for (const core::TaskAutomaton &automaton : specs)
        pointers.push_back(&automaton);
    core::InterleavedChecker checker(config.checker, pointers);
    analysis::InterferenceOptions prove;
    prove.maxForkFanout = static_cast<int>(config.checker.maxForkFanout);
    prove.numbersAsIdentifiers = config.numbersAsIdentifiers;
    checker.setCertifiedTemplates(
        analysis::analyzeInterference(specs, catalog, prove)
            .certificate.certifiedBits(catalog.size()));
    core::TimeoutPolicy policy;
    policy.defaultTimeout = config.timeoutSeconds;
    policy.perTask = config.perTaskTimeouts;
    auto resolver = [&policy](const std::vector<std::string> &tasks) {
        return policy.timeoutForCandidates(tasks);
    };
    logging::VariableExtractor extractor;
    logging::IdentifierInterner &interner =
        logging::IdentifierInterner::process();

    common::SimTime clock = 0.0;
    bool any_fed = false;
    std::vector<core::MonitorReport> reports;
    auto render = [&]() {
        for (const core::MonitorReport &report : reports) {
            c.digest.add(core::reportToJson(report, catalog));
            tracer.close(kRender);
        }
        reports.clear();
    };
    auto collect = [&](std::vector<core::CheckEvent> events, bool eos) {
        for (core::CheckEvent &event : events)
            reports.push_back({std::move(event), eos});
    };

    tracer.skip(); // the first line starts after the pipeline is built
    for (std::size_t i = 0; i < lines.size(); ++i) {
        tracer.beginLine(static_cast<std::uint32_t>(i));
        std::optional<logging::LogRecord> record =
            logging::decodeLogLine(lines[i]);
        tracer.close(kDecode);
        if (!record) {
            ++c.malformed;
            tracer.endLine();
            continue;
        }
        common::SimTime message_time = record->timestamp;
        if (message_time < clock)
            ++c.clamped;
        clock = std::max(clock, message_time);
        any_fed = true;

        core::CheckMessage message;
        logging::ParsedBody parsed = extractor.parse(record->body);
        tracer.close(kExtract);
        message.tpl = catalog.find(record->service, parsed.templateText);
        tracer.close(kCatalog);
        c.catalogMisses += message.tpl == logging::kInvalidTemplate ? 1 : 0;
        for (logging::Variable &var : parsed.variables) {
            if (var.kind == logging::VariableKind::Number &&
                !config.numbersAsIdentifiers)
                continue;
            logging::IdToken token = interner.intern(var.text);
            tracer.close(kIntern);
            if (token != logging::kInvalidIdToken)
                message.identifiers.push_back(token);
        }
        message.level = record->level;
        message.record = input.ids[i];
        message.time = message_time;

        collect(checker.sweepTimeouts(clock, resolver), false);
        tracer.close(kSweep);
        collect(checker.feed(message), false);
        tracer.close(kCheck);
        c.groupsPeak = std::max(c.groupsPeak, checker.activeGroups());
        c.idsetsPeak =
            std::max(c.idsetsPeak, checker.activeIdentifierSets());
        tracer.skip(); // the bench's own bookkeeping stays outside the layers
        render();
        tracer.endLine();
    }

    // WorkflowMonitor::finish with an empty reorder buffer.
    tracer.beginLine(static_cast<std::uint32_t>(lines.size()));
    if (any_fed) {
        common::SimTime horizon = clock + config.timeoutSeconds * 1.001;
        collect(checker.sweepTimeouts(horizon, resolver), true);
        tracer.close(kSweep);
        collect(checker.finish(horizon), true);
        tracer.close(kCheckerFinish);
        render();
    }
    tracer.endLine();
    c.checker = checker.stats();
    c.lines = lines.size();
    // With the guards off these are the only ingest counters that move.
    c.ingest.malformedBadHeader = c.malformed;
    c.ingest.nonMonotonicClamped = c.clamped;
}

/**
 * Adverse workload: the ingest guards are private to the monitor, so
 * the spans sit around the public calls a VaultedMonitor makes: the
 * ledger append, the wire decode, WorkflowMonitor::feed (guards, checker
 * and obs sinks inside), the periodic checkpoint, and rendering.
 */
void
traceVaulted(const Workload &w, const eval::ModeledSystem &models,
             const WireLines &input, const std::string &dir, Tracer &tracer,
             TracedCounters &c)
{
    const std::vector<std::string> &lines = input.lines;
    const logging::TemplateCatalog &catalog = *models.catalog;
    core::WorkflowMonitor monitor(monitorConfigFor(w), models.catalog,
                                  models.automataCopy());
    const std::string vault_dir = dir + "/vault-traced";
    std::filesystem::remove_all(vault_dir);
    std::filesystem::create_directories(vault_dir);
    vault::WriteAheadLedger ledger(vault::ledgerPath(vault_dir));
    if (!ledger.open())
        die("cannot open " + ledger.filePath());
    std::uint64_t ledger_base = ledger.bytes();
    std::uint64_t seq = 0;
    std::uint64_t since_checkpoint = 0;

    // VaultedMonitor::checkpoint, step for step.
    auto checkpoint = [&]() {
        Clock::time_point start = Clock::now();
        vault::CheckpointMeta meta;
        meta.modelFingerprint = monitor.modelFingerprint();
        meta.coveredSeq = seq;
        meta.monitorTime = monitor.lastTime();
        common::BinWriter interner_out;
        logging::IdentifierInterner::process().snapshotState(interner_out);
        common::BinWriter monitor_out;
        monitor.saveState(monitor_out);
        std::vector<std::pair<vault::CheckpointSection, std::string>>
            sections;
        sections.emplace_back(vault::CheckpointSection::Meta,
                              vault::encodeMeta(meta));
        sections.emplace_back(vault::CheckpointSection::Interner,
                              interner_out.takeBytes());
        sections.emplace_back(vault::CheckpointSection::Monitor,
                              monitor_out.takeBytes());
        std::uint64_t bytes = vault::writeCheckpoint(
            vault::checkpointPath(vault_dir), sections);
        if (bytes == 0)
            die("checkpoint write failed in " + vault_dir);
        c.walBytes += ledger.bytes() - ledger_base;
        if (!ledger.rotate())
            die("ledger rotation failed in " + vault_dir);
        ledger_base = ledger.bytes();
        since_checkpoint = 0;
        c.checkpointMs.push_back(secondsSince(start) * 1000.0);
        c.checkpointBytes.push_back(static_cast<double>(bytes));
    };

    const obs::Observability *obs = monitor.observability();
    double last_snapshot_time = -1.0;
    std::size_t last_snapshot_count = 0;
    auto countSnapshots = [&]() {
        const std::vector<obs::HealthSample> &snaps = obs->snapshots();
        if (snaps.empty())
            return;
        if (snaps.size() != last_snapshot_count ||
            snaps.back().time != last_snapshot_time) {
            ++c.snapshots;
            last_snapshot_count = snaps.size();
            last_snapshot_time = snaps.back().time;
        }
    };

    std::vector<core::MonitorReport> reports;
    auto render = [&]() {
        for (const core::MonitorReport &report : reports) {
            c.digest.add(core::reportToJson(report, catalog));
            tracer.close(kRender);
        }
        reports.clear();
    };

    tracer.skip(); // the first line starts after the pipeline is built
    for (std::size_t i = 0; i < lines.size(); ++i) {
        tracer.beginLine(static_cast<std::uint32_t>(i));
        std::optional<logging::LogRecord> record =
            logging::decodeLogLine(lines[i]);
        tracer.close(kDecode);
        // VaultedMonitor::feed / feedLine: ledger first, then the
        // monitor; an undecodable line goes through feedLine, which
        // decodes it again and files it in the quarantine.
        if (record) {
            record->id = input.ids[i];
            ledger.appendRecord(++seq, *record);
        } else {
            ledger.appendLine(++seq, lines[i]);
        }
        ++since_checkpoint;
        tracer.close(kWalAppend);
        reports = record ? monitor.feed(*record) : monitor.feedLine(lines[i]);
        c.alerts += monitor.drainAlertJson().size();
        tracer.close(kMonitorFeed);
        countSnapshots();
        c.groupsPeak = std::max(c.groupsPeak, monitor.activeGroups());
        c.idsetsPeak =
            std::max(c.idsetsPeak, monitor.activeIdentifierSets());
        tracer.skip(); // the bench's own bookkeeping stays outside the layers
        if (since_checkpoint >= kCheckpointEveryRecords) {
            checkpoint();
            tracer.close(kCheckpoint);
        }
        render();
        tracer.endLine();
    }

    tracer.beginLine(static_cast<std::uint32_t>(lines.size()));
    reports = monitor.finish();
    c.alerts += monitor.drainAlertJson().size();
    tracer.close(kMonitorFinish);
    countSnapshots();
    checkpoint();
    tracer.close(kCheckpoint);
    render();
    tracer.endLine();

    c.lines = lines.size();
    c.checker = monitor.stats();
    c.ingest = monitor.ingestStats();
    if (const obs::FlightRecorder *flight = monitor.flightRecorder())
        c.bundles = flight->bundles().size() + flight->droppedBundles();
}

int
runTraced(const Workload &w, const std::string &dir)
{
    WireLines input = readLines(dir + "/lines.bin");
    eval::ModeledSystem models = mineModels();
    std::size_t interner_start = requireColdInterner();
    Tracer tracer(input.lines.size() * 12 + 64);
    TracedCounters c;

    if (w.adverse)
        traceVaulted(w, models, input, dir, tracer, c);
    else
        tracePipeline(w, models, input, tracer, c);

    LayerTotals t = aggregate(tracer.all());
    double wall = t.wallNs / 1e9;
    writeSpans(dir + "/spans.bin", tracer.all());

    logging::InternerStats interner =
        logging::IdentifierInterner::process().stats();
    auto perCall = [&](Layer layer) {
        return t.calls[layer] == 0
                   ? 0.0
                   : t.selfNs[layer] / static_cast<double>(t.calls[layer]);
    };
    double layer_self = 0.0;
    for (int layer = kDecode; layer < kLayerCount; ++layer)
        layer_self += t.selfNs[layer];
    const core::CheckerStats &s = c.checker;
    double messages = static_cast<double>(std::max<std::uint64_t>(1, s.messages));
    double feed_records =
        w.adverse ? static_cast<double>(t.calls[kMonitorFeed])
                  : static_cast<double>(t.calls[kExtract]);
    // On the clean workloads WorkflowMonitor::feed is the span from
    // extraction to the checker's verdict; the bench calls those
    // layers itself, so the monitor's cost is their sum per record.
    double monitor_feed_ns =
        w.adverse ? t.selfNs[kMonitorFeed]
                  : t.selfNs[kExtract] + t.selfNs[kCatalog] +
                        t.selfNs[kIntern] + t.selfNs[kSweep] +
                        t.selfNs[kCheck];
    auto mean = [](const std::vector<double> &v) {
        double sum = 0.0;
        for (double x : v)
            sum += x;
        return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
    };
    double ckpt_max = 0.0;
    for (double ms : c.checkpointMs)
        ckpt_max = std::max(ckpt_max, ms);
    std::uint64_t intern_calls = interner.hits + interner.misses;

    JsonOut out;
    out.str("mode", "traced")
        .str("workload", w.name)
        .count("lines", c.lines)
        .count("spans", tracer.all().size())
        .count("interner_start", interner_start)
        .num("wall_s", wall)
        .num("layer_self_share", layer_self / (wall * 1e9))
        .str("digest", c.digest.hex())
        .num("logging.decode_ns", perCall(kDecode))
        .num("logging.extract_ns", perCall(kExtract))
        .num("logging.catalog_ns", perCall(kCatalog))
        .num("logging.intern_ns", perCall(kIntern))
        .num("logging.intern_calls_per_line",
             static_cast<double>(intern_calls) /
                 static_cast<double>(std::max<std::uint64_t>(1, c.lines)))
        .num("logging.intern_hit_ratio", interner.hitRate())
        .num("logging.catalog_miss_ratio",
             t.calls[kCatalog] == 0
                 ? 0.0
                 : static_cast<double>(c.catalogMisses) /
                       static_cast<double>(t.calls[kCatalog]))
        .num("logging.intern_max_us", t.maxNs[kIntern] / 1000.0)
        .count("logging.interner_entries", interner.size)
        .num("checker.sweep_ns", perCall(kSweep))
        .num("checker.feed_ns", perCall(kCheck))
        .num("checker.probes_per_msg",
             static_cast<double>(s.consumeAttempts) / messages)
        .num("checker.decisive_share", s.decisiveFraction())
        .count("checker.ambiguous", s.ambiguous)
        .count("checker.recovery_a", s.recoveredPassUnknown)
        .count("checker.recovery_b", s.recoveredNewSequence)
        .count("checker.recovery_c", s.recoveredOtherSet)
        .count("checker.recovery_d", s.recoveredFalseDependency)
        .count("checker.unmatched", s.unmatched)
        .count("checker.groups_peak", c.groupsPeak)
        .count("checker.idsets_peak", c.idsetsPeak)
        .num("monitor.feed_ns",
             feed_records == 0.0 ? 0.0 : monitor_feed_ns / feed_records)
        .num("monitor.render_ns", perCall(kRender))
        .count("monitor.quarantined", c.ingest.malformed())
        .count("monitor.duplicates_suppressed",
               c.ingest.duplicatesSuppressed)
        .count("monitor.clamped", c.ingest.nonMonotonicClamped)
        .count("monitor.reorder_peak", c.ingest.reorderBufferPeak)
        .count("monitor.forced_releases", c.ingest.forcedReleases)
        .count("monitor.groups_shed", c.ingest.groupsShed)
        .num("vault.wal_append_ns", perCall(kWalAppend))
        .num("vault.wal_bytes_per_line",
             static_cast<double>(c.walBytes) /
                 static_cast<double>(std::max<std::uint64_t>(1, c.lines)))
        .num("vault.checkpoint_ms", mean(c.checkpointMs))
        .num("vault.checkpoint_ms_max", ckpt_max)
        .num("vault.checkpoint_bytes", mean(c.checkpointBytes))
        .count("vault.checkpoints", c.checkpointMs.size())
        .count("obs.snapshots", c.snapshots)
        .count("obs.bundles", c.bundles)
        .count("obs.alerts", c.alerts);
    describeHost(out);
    out.print();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        die("usage: perfbench_e2e prepare|timed|traced --workload W "
            "--dir D [--seed S] [--tasks-per-user N] [--setup-reps R]");
    const std::string mode = argv[1];
    std::map<std::string, std::string> opts;
    for (int i = 2; i + 1 < argc; i += 2) {
        if (std::strncmp(argv[i], "--", 2) != 0)
            die(std::string("unexpected argument ") + argv[i]);
        opts[argv[i] + 2] = argv[i + 1];
    }
    auto need = [&](const char *key) {
        auto it = opts.find(key);
        if (it == opts.end())
            die(std::string("missing --") + key);
        return it->second;
    };
    const Workload &w = workloadNamed(need("workload"));
    const std::string dir = need("dir");
    std::filesystem::create_directories(dir);

    if (mode == "prepare") {
        int tasks = opts.count("tasks-per-user")
                        ? std::stoi(opts["tasks-per-user"])
                        : w.tasksPerUser;
        bool wire_check =
            opts.count("wire-check") && opts["wire-check"] == "1";
        return runPrepare(w, std::stoull(need("seed")), tasks, dir,
                          wire_check);
    }
    if (mode == "timed") {
        int reps = opts.count("setup-reps") ? std::stoi(opts["setup-reps"])
                                            : 3;
        return runTimed(w, dir, std::max(1, reps));
    }
    if (mode == "traced")
        return runTraced(w, dir);
    die("unknown mode '" + mode + "'");
}
