#include "obs/observability.hpp"

#include <algorithm>
#include <bitset>
#include <charconv>
#include <iterator>
#include <sstream>
#include <type_traits>

namespace cloudseer::obs {

namespace {

/** How a HealthSample field is exposed on /metrics. */
enum class Exposure : std::uint8_t
{
    None,
    Counter,
    Gauge
};

/**
 * One HealthSample field: its member (exactly one of `count`/`real`),
 * its HEALTH key (`section` is "" at the top level) and its /metrics
 * instrument, if any.
 */
struct HealthField
{
    std::uint64_t HealthSample::*count = nullptr;
    double HealthSample::*real = nullptr;
    std::string_view section;
    std::string_view key;
    Exposure exposure = Exposure::None;
    const char *metric = nullptr;
    const char *help = nullptr;

    template <typename T>
    constexpr HealthField(T HealthSample::*member, std::string_view sec,
                          std::string_view name,
                          Exposure how = Exposure::None,
                          const char *metric_name = nullptr,
                          const char *metric_help = nullptr)
        : section(sec), key(name), exposure(how), metric(metric_name),
          help(metric_help)
    {
        if constexpr (std::is_same_v<T, double>)
            real = member;
        else
            count = member;
    }
};

constexpr Exposure kCounter = Exposure::Counter;
constexpr Exposure kGauge = Exposure::Gauge;
using S = HealthSample;

/**
 * Every HealthSample field, once, in checkpoint-image order (pinned by
 * tests/golden/observability_state.bin). toJson, fromJson, saveState,
 * restoreState and the /metrics refresh are each one loop over it.
 */
constexpr HealthField kHealthFields[] = {
    {&S::time, "", "time"},
    {&S::messages, "", "messages", kCounter, "seer_messages_total",
     "messages the checker processed"},
    {&S::decisive, "", "decisive", kCounter, "seer_decisive_total",
     "Algorithm 2 case-1 consumptions"},
    {&S::ambiguous, "", "ambiguous", kCounter, "seer_ambiguous_total",
     "Algorithm 2 case-2 forks"},
    {&S::recoveredPassUnknown, "recoveries", "a", kCounter,
     "seer_recovery_pass_unknown_total",
     "recovery (a): unknown-template pass-throughs"},
    {&S::recoveredNewSequence, "recoveries", "b", kCounter,
     "seer_recovery_new_sequence_total",
     "recovery (b): new-sequence starts"},
    {&S::recoveredOtherSet, "recoveries", "c", kCounter,
     "seer_recovery_other_set_total",
     "recovery (c): re-routed to another identifier set"},
    {&S::recoveredFalseDependency, "recoveries", "d", kCounter,
     "seer_recovery_false_dependency_total",
     "recovery (d): false-dependency repairs"},
    {&S::unmatched, "", "unmatched", kCounter, "seer_unmatched_total",
     "messages no recovery could place"},
    {&S::accepted, "", "accepted", kCounter, "seer_accepted_total",
     "sequences accepted"},
    {&S::errorsReported, "", "errors", kCounter,
     "seer_errors_reported_total", "error-criterion reports"},
    {&S::timeoutsReported, "", "timeouts", kCounter,
     "seer_timeouts_reported_total", "timeout-criterion reports"},
    {&S::timeoutsSuppressed, "", "suppressed", kCounter,
     "seer_timeouts_suppressed_total",
     "timeouts pruned by lineage coverage"},
    {&S::groupsShed, "", "shed", kCounter, "seer_groups_shed_total",
     "groups evicted under cap pressure"},
    {&S::consumeAttempts, "", "consumeAttempts", kCounter,
     "seer_consume_attempts_total", "group consumption probes"},
    {&S::decisiveFraction, "", "decisiveFraction", kGauge,
     "seer_decisive_fraction",
     "fraction of routed messages resolved decisively"},
    {&S::activeGroups, "", "activeGroups", kGauge, "seer_active_groups",
     "automaton groups currently in flight"},
    {&S::activeIdentifierSets, "", "idsets", kGauge,
     "seer_active_identifier_sets", "identifier sets currently tracked"},
    {&S::linesSeen, "ingest", "lines", kCounter,
     "seer_ingest_lines_total", "raw lines offered to feedLine"},
    {&S::recordsDelivered, "", "delivered", kCounter,
     "seer_ingest_records_delivered_total",
     "records that reached the checker"},
    {&S::malformedLines, "ingest", "malformed", kCounter,
     "seer_ingest_malformed_total", "quarantined malformed lines"},
    {&S::nonMonotonicClamped, "ingest", "clamped", kCounter,
     "seer_ingest_clamped_total",
     "non-monotonic timestamps seen by the guard"},
    {&S::duplicatesSuppressed, "ingest", "duplicates", kCounter,
     "seer_ingest_duplicates_suppressed_total",
     "near-duplicate deliveries suppressed"},
    {&S::forcedReleases, "ingest", "forced", kCounter,
     "seer_ingest_forced_releases_total",
     "reorder-buffer overflow force-outs"},
    {&S::reorderBufferPeak, "ingest", "reorderPeak", kGauge,
     "seer_reorder_buffer_peak", "largest reorder-buffer depth seen"},
    {&S::memoryEvictions, "memory", "evictions", kCounter,
     "seer_memory_evictions_total",
     "groups evicted by the memory ceiling"},
    {&S::internerCapRejected, "memory", "internerCapRejected", kCounter,
     "seer_interner_cap_rejected_total",
     "identifiers refused at the interner capacity"},
    {&S::internerSize, "interner", "size", kGauge, "seer_interner_size",
     "identifiers interned by this monitor"},
    {&S::internerHits, "interner", "hits"},
    {&S::internerMisses, "interner", "misses"},
    {&S::timeoutResolutions, "timeoutPolicy", "resolutions", kCounter,
     "seer_timeout_resolutions_total", "per-group timeout resolutions"},
    {&S::timeoutDefaultFallbacks, "timeoutPolicy", "fallbacks", kCounter,
     "seer_timeout_default_fallbacks_total",
     "timeout resolutions that fell back to the default"},
    {&S::feedP50us, "feedLatencyUs", "p50"},
    {&S::feedP90us, "feedLatencyUs", "p90"},
    {&S::feedP99us, "feedLatencyUs", "p99"},
    {&S::feedMaxUs, "feedLatencyUs", "max"},
    {&S::walAppendP50us, "walAppendUs", "p50"},
    {&S::walAppendP99us, "walAppendUs", "p99"},
};

constexpr std::size_t kFieldCount = std::size(kHealthFields);

// A counter samples a count: Counter::set takes no double.
static_assert(std::none_of(
    std::begin(kHealthFields), std::end(kHealthFields),
    [](const HealthField &f) {
        return f.exposure == kCounter && f.count == nullptr;
    }));

/** Slots of the retired sharded-engine fields that close every image:
 *  an empty lane list and five zero counters. */
constexpr std::size_t kRetiredSlots = 6;

/** A health sample's checkpoint image: one 8-byte slot per field. */
constexpr std::size_t kHealthSampleBytes =
    (kFieldCount + kRetiredSlots) * 8;

/** True for a section's first row: toJson writes the whole section
 *  there, keeping its keys together where the image interleaves. */
constexpr bool
opensSection(std::size_t row)
{
    for (std::size_t i = 0; i < row; ++i) {
        if (kHealthFields[i].section == kHealthFields[row].section)
            return false;
    }
    return !kHealthFields[row].section.empty();
}

void
appendField(std::ostringstream &out, const HealthField &field,
            const HealthSample &sample)
{
    out << '"' << field.key << "\":";
    if (field.count != nullptr)
        out << sample.*field.count;
    else
        out << sample.*field.real;
}

/**
 * Strict reader of one HEALTH line: an object of numbers and of
 * sections of numbers with "kind":"HEALTH" among its members, no
 * whitespace (toJson writes none) and nothing after it.
 */
class HealthReader
{
  public:
    explicit HealthReader(std::string_view text) : rest(text) {}

    bool
    read(HealthSample &out)
    {
        bool kind = false;
        bool ok = readObject([&](std::string_view name) {
            if (name == "kind") {
                std::string_view tag;
                bool repeated = kind;
                kind = true;
                return !repeated && readName(tag) && tag == "HEALTH";
            }
            if (!rest.starts_with('{'))
                return readField(out, "", name);
            return readObject([&](std::string_view key) {
                return readField(out, name, key);
            });
        });
        return ok && kind && rest.empty();
    }

  private:
    std::string_view rest;
    std::bitset<kFieldCount> seen;

    bool
    take(char c)
    {
        if (!rest.starts_with(c))
            return false;
        rest.remove_prefix(1);
        return true;
    }

    /** A non-empty quoted name (HEALTH names carry no escapes). */
    bool
    readName(std::string_view &name)
    {
        std::size_t end = rest.find('"', 1);
        if (!take('"') || end == 1 || end == std::string_view::npos)
            return false;
        name = rest.substr(0, end - 1);
        rest.remove_prefix(end);
        return true;
    }

    /** `{"name":<member>,...}`; `member` reads each value. */
    template <typename Member>
    bool
    readObject(Member &&member)
    {
        if (!take('{'))
            return false;
        if (take('}'))
            return true;
        do {
            std::string_view name;
            if (!readName(name) || !take(':') || !member(name))
                return false;
        } while (take(','));
        return take('}');
    }

    /** The JSON number at the front of `rest`, or "" if none. */
    std::string_view
    numberToken()
    {
        std::size_t i = rest.starts_with('-') ? 1 : 0;
        auto at = [&](std::string_view chars) {
            return i < rest.size() &&
                   chars.find(rest[i]) != std::string_view::npos;
        };
        auto digits = [&] {
            std::size_t from = i;
            while (at("0123456789"))
                ++i;
            return i > from;
        };
        if (at("0"))
            ++i; // no leading zeros
        else if (!digits())
            return {};
        // A fraction or exponent needs digits after its mark.
        auto part = [&](std::string_view mark) {
            if (!at(mark))
                return true;
            ++i;
            if (mark == "eE" && at("+-"))
                ++i;
            return digits();
        };
        if (!part(".") || !part("eE"))
            return {};
        std::string_view token = rest.substr(0, i);
        rest.remove_prefix(i);
        return token;
    }

    bool
    readField(HealthSample &out, std::string_view section,
              std::string_view key)
    {
        std::string_view token = numberToken();
        if (token.empty())
            return false;
        const HealthField *field = std::find_if(
            std::begin(kHealthFields), std::end(kHealthFields),
            [&](const HealthField &f) {
                return f.section == section && f.key == key;
            });
        if (field == std::end(kHealthFields))
            return true; // unknown key: ignored
        std::size_t row = field - std::begin(kHealthFields);
        if (seen.test(row))
            return false;
        seen.set(row);
        // An unsigned from_chars takes digits only: a sign, fraction
        // or exponent in a count leaves `ptr` short of the end.
        const char *end = token.data() + token.size();
        std::from_chars_result parsed =
            field->count != nullptr
                ? std::from_chars(token.data(), end, out.*field->count)
                : std::from_chars(token.data(), end, out.*field->real);
        return parsed.ec == std::errc() && parsed.ptr == end;
    }
};

} // namespace

std::string
HealthSample::toJson() const
{
    std::ostringstream out;
    out << "{\"kind\":\"HEALTH\"";
    for (std::size_t i = 0; i < kFieldCount; ++i) {
        const HealthField &field = kHealthFields[i];
        if (field.section.empty()) {
            out << ',';
            appendField(out, field, *this);
        } else if (opensSection(i)) {
            out << ",\"" << field.section << "\":{";
            const char *separator = "";
            for (std::size_t j = i; j < kFieldCount; ++j) {
                if (kHealthFields[j].section == field.section) {
                    out << separator;
                    appendField(out, kHealthFields[j], *this);
                    separator = ",";
                }
            }
            out << '}';
        }
    }
    out << '}';
    return out.str();
}

std::optional<HealthSample>
HealthSample::fromJson(std::string_view line)
{
    HealthSample sample;
    if (!HealthReader(line).read(sample))
        return std::nullopt;
    return sample;
}

void
HealthSample::saveState(common::BinWriter &out) const
{
    for (const HealthField &field : kHealthFields) {
        if (field.count != nullptr)
            out.writeU64(this->*field.count);
        else
            out.writeF64(this->*field.real);
    }
    for (std::size_t i = 0; i < kRetiredSlots; ++i)
        out.writeU64(0);
}

bool
HealthSample::restoreState(common::BinReader &in)
{
    for (const HealthField &field : kHealthFields) {
        if (field.count != nullptr)
            this->*field.count = in.readU64();
        else
            this->*field.real = in.readF64();
    }
    // Retired sharded-engine slots (see saveState): images taken by
    // older sharded monitors carry six 8-byte fields per lane.
    std::uint64_t lane_count = in.readU64();
    if (!in.ok() || lane_count > in.remaining() / 48) {
        in.fail();
        return false;
    }
    for (std::uint64_t i = 0; i < lane_count * 6 + kRetiredSlots - 1;
         ++i)
        in.readU64();
    return in.ok();
}

Observability::Observability(const ObsConfig &config)
    : cfg(config), startedAt(std::chrono::steady_clock::now())
{
    if (cfg.metrics) {
        // Inputs and stages span sub-microsecond to seconds: 0.1us..1s.
        clockPtr = std::make_unique<StageClock>(registry.histogram(
            "seer_feed_latency_us",
            "per-input monitor feed latency, microseconds", -1, 6));
        for (Stage stage : {Stage::Sink, Stage::Parse, Stage::Route,
                            Stage::Check, Stage::Verdict}) {
            std::string name = stageName(stage);
            clockPtr->laps(stage) = &registry.histogram(
                "seer_stage_" + name + "_us",
                "time one input in " +
                    std::to_string(StageClock::kLapEvery) +
                    " spends in the " + name + " stage, microseconds",
                -1, 6);
        }
    }
    if (cfg.flightRecorder.enabled())
        flightPtr = std::make_unique<FlightRecorder>(cfg.flightRecorder);
    if (cfg.tracing) {
        tracerPtr =
            std::make_unique<ExecutionTracer>(kMaxTraceSpans);
        if (cfg.metrics) {
            tracerPtr->attachHistograms(
                &registry.histogram(
                    "seer_span_duration_seconds",
                    "automaton-group lifetime, message-clock seconds",
                    -3, 5),
                &registry.histogram(
                    "seer_span_messages",
                    "messages consumed per automaton group", 0, 5));
        }
    }
}

Histogram *
Observability::walAppendLatency()
{
    if (clockPtr == nullptr)
        return nullptr;
    Histogram *&wal = clockPtr->laps(Stage::WalAppend);
    if (wal == nullptr) {
        // Group-committed appends span sub-microsecond (coalesced)
        // to milliseconds (fsync'd): 0.1us..1s.
        wal = &registry.histogram(
            "seer_wal_append_us",
            "vault ledger append latency, microseconds", -1, 6);
    }
    return wal;
}

void
Observability::setBuildInfo(const std::string &build_version,
                            const std::string &model_fingerprint)
{
    version = build_version;
    fingerprint = model_fingerprint;
}

double
Observability::uptimeSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - startedAt)
        .count();
}

bool
Observability::snapshotDue(double message_time) const
{
    if (cfg.snapshotIntervalSeconds <= 0.0)
        return false;
    return !anySnapshot || message_time - lastSnapshotTime >=
                               cfg.snapshotIntervalSeconds;
}

void
Observability::addSnapshot(const HealthSample &sample)
{
    lastSnapshotTime = sample.time;
    anySnapshot = true;
    updateRegistry(sample);
    history.push_back(sample);
    if (history.size() > kMaxSnapshots)
        history.erase(history.begin(),
                      history.begin() +
                          static_cast<std::ptrdiff_t>(
                              history.size() - kMaxSnapshots));
}

void
Observability::updateRegistry(const HealthSample &s)
{
    auto c = [this](const char *name, const char *help,
                    std::uint64_t value) {
        registry.counter(name, help).set(value);
    };
    auto g = [this](const char *name, const char *help, double value) {
        registry.gauge(name, help).set(value);
    };

    for (const HealthField &field : kHealthFields) {
        if (field.exposure == kCounter)
            c(field.metric, field.help, s.*field.count);
        else if (field.exposure == kGauge)
            g(field.metric, field.help,
              field.count ? static_cast<double>(s.*field.count)
                          : s.*field.real);
    }
    g("seer_interner_hit_rate",
      "fraction of intern lookups served from the table",
      s.internerHitRate());
    if (tracerPtr != nullptr) {
        c("seer_trace_spans_dropped_total",
          "closed spans dropped past the retention cap",
          tracerPtr->droppedSpans());
        g("seer_trace_open_spans", "spans currently open",
          static_cast<double>(tracerPtr->openSpans()));
    }

    // Build identity (seer-pulse: scrapes are self-describing).
    if (!version.empty() || !fingerprint.empty()) {
        registry
            .labeledGauge("seer_build_info",
                          {{"model_fingerprint", fingerprint},
                           {"version", version}},
                          "build identity; value is always 1")
            .set(1.0);
        g("seer_uptime_seconds",
          "wall-clock seconds since the monitor came up",
          uptimeSeconds());
    }
}

std::string
Observability::prometheusText(const HealthSample &current)
{
    if (!cfg.metrics)
        return "";
    updateRegistry(current);
    return registry.prometheusText();
}

std::string
Observability::snapshotJsonLines() const
{
    std::string out;
    for (const HealthSample &sample : history) {
        out += sample.toJson();
        out += "\n";
    }
    return out;
}

void
Observability::saveState(common::BinWriter &out) const
{
    const Histogram *feed = clockPtr ? &clockPtr->total() : nullptr;
    const Histogram *wal =
        feed == nullptr ? nullptr : clockPtr->laps(Stage::WalAppend);
    out.writeBool(feed != nullptr);
    if (feed != nullptr)
        feed->saveState(out);
    out.writeBool(wal != nullptr);
    if (wal != nullptr)
        wal->saveState(out);
    out.writeU64(history.size());
    for (const HealthSample &sample : history)
        sample.saveState(out);
    out.writeF64(lastSnapshotTime);
    out.writeBool(anySnapshot);
}

bool
Observability::restoreState(common::BinReader &in)
{
    bool has_hist = in.readBool();
    if (!in.ok() || has_hist != (clockPtr != nullptr)) {
        in.fail();
        return false;
    }
    if (has_hist && !clockPtr->total().restoreState(in))
        return false;
    bool has_wal = in.readBool();
    if (!in.ok())
        return false;
    if (has_wal) {
        // Created on demand: a restoring vaulted monitor may not
        // have touched the ledger yet, so materialise it here.
        Histogram *wal = walAppendLatency();
        if (wal == nullptr || !wal->restoreState(in)) {
            in.fail();
            return false;
        }
    }
    std::uint64_t sample_count = in.readCount(kHealthSampleBytes);
    if (!in.ok())
        return false;
    history.clear();
    history.reserve(static_cast<std::size_t>(sample_count));
    for (std::uint64_t i = 0; i < sample_count; ++i) {
        HealthSample sample;
        if (!sample.restoreState(in))
            return false;
        history.push_back(sample);
    }
    lastSnapshotTime = in.readF64();
    anySnapshot = in.readBool();
    if (!in.ok())
        return false;
    if (!history.empty())
        updateRegistry(history.back());
    return true;
}

} // namespace cloudseer::obs
