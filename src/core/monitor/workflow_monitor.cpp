#include "core/monitor/workflow_monitor.hpp"

#include <algorithm>
#include <sstream>

#include "analysis/interference.hpp"
#include "analysis/model_lint.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/version.hpp"
#include "core/monitor/report_json.hpp"
#include "logging/record_binio.hpp"

namespace cloudseer::core {

IngestConfig
hardenedIngestDefaults()
{
    IngestConfig config;
    config.reorderWindowSeconds = 0.25;
    config.clampNonMonotonic = true;
    config.dedupWindowSeconds = 5.0;
    config.maxActiveGroups = 256;
    return config;
}

std::vector<const TaskAutomaton *>
WorkflowMonitor::pointersTo(const std::vector<TaskAutomaton> &automata)
{
    std::vector<const TaskAutomaton *> out;
    out.reserve(automata.size());
    for (const TaskAutomaton &automaton : automata)
        out.push_back(&automaton);
    return out;
}

WorkflowMonitor::WorkflowMonitor(
    const MonitorConfig &config_,
    std::shared_ptr<logging::TemplateCatalog> catalog,
    std::vector<TaskAutomaton> automata)
    : config(config_),
      catalogPtr(std::move(catalog)),
      specs(std::move(automata)),
      checker(config.checker, pointersTo(specs))
{
    CS_ASSERT(catalogPtr != nullptr, "monitor needs a catalog");
    timeoutPolicy.defaultTimeout = config.timeoutSeconds;
    timeoutPolicy.perTask = config.perTaskTimeouts;

    // seer-pulse implies metrics (the /metrics document and the stage
    // histograms live in the registry) and a snapshot heartbeat (the
    // rate engine consumes the health series at snapshot cadence).
    if (config.pulse.enabled) {
        config.observability.metrics = true;
        if (config.observability.snapshotIntervalSeconds <= 0.0) {
            config.observability.snapshotIntervalSeconds =
                std::max(1.0, config.pulse.windowSeconds / 6.0);
        }
    }

    // seer-scope: only instantiated when some sink is on; the null
    // sink is a null pointer, not a disabled object.
    if (config.observability.enabled()) {
        obsPtr =
            std::make_unique<obs::Observability>(config.observability);
        checker.setTracer(obsPtr->tracer());
        stageClock = obsPtr->stageClock();
    }

    identifiers.setCapacity(config.ingest.maxInternerEntries);

    // seer-flight: install the latency criterion when profiles ship
    // with the model. Tasks without a sampled profile stay exempt.
    if (!config.latencyProfiles.empty())
        checker.setLatencyPolicy(config.latencyProfiles,
                                 config.latencyCheck);

    // Load-time model verification (seer-lint): a structurally broken
    // specification produces confidently wrong reports for as long as
    // the deployment runs, so errors refuse to start by default.
    analysis::LintOptions lint;
    lint.maxForkFanout = config.checker.maxForkFanout;
    lint.numbersAsIdentifiers = config.numbersAsIdentifiers;
    lint.defaultTimeout = config.timeoutSeconds;
    lint.perTaskTimeouts = config.perTaskTimeouts;
    loadReport = analysis::lintModels(specs, *catalogPtr, lint);
    if (!config.latencyProfiles.empty()) {
        loadReport.merge(analysis::lintLatencyProfiles(
            specs, config.latencyProfiles));
    }

    // seer-prove (DESIGN.md §15): the interference analysis runs at
    // every load — its SL02x findings belong in the load report — and
    // its certificate arms the checker's provably equivalent fast
    // path unless the deployment opts out.
    analysis::InterferenceOptions prove;
    prove.maxForkFanout = config.checker.maxForkFanout;
    prove.numbersAsIdentifiers = config.numbersAsIdentifiers;
    analysis::InterferenceResult interference =
        analysis::analyzeInterference(specs, *catalogPtr, prove);
    loadReport.merge(std::move(interference.report));
    loadReport.sortStable();
    if (config.proveFastPath) {
        checker.setCertifiedTemplates(
            interference.certificate.certifiedBits(catalogPtr->size()));
    }

    if (config.verifyModelOnLoad && loadReport.hasErrors()) {
        std::string msg = "seer-lint rejected the model bundle:";
        for (const std::string &finding :
             analysis::errorSummaries(loadReport)) {
            msg += "\n  " + finding;
        }
        msg += "\nfix the model or replay with verifyModelOnLoad=false "
               "(--no-verify)";
        common::fatal(msg);
    }

    // seer-pulse (DESIGN.md §16): build identity, the rate + alert
    // engines and, with a port, the scrape endpoint. Placed after the
    // lint gate so a rejected model never opens a socket.
    if (obsPtr != nullptr) {
        std::ostringstream fp;
        fp << std::hex << modelFingerprint();
        obsPtr->setBuildInfo(common::kVersion, fp.str());
    }
    if (config.pulse.enabled) {
        pulsePtr = std::make_unique<obs::PulseEngine>(config.pulse);
        if (config.pulse.httpPort >= 0) {
            pulseServer = std::make_unique<obs::TelemetryServer>(
                config.pulse.httpBindAddress,
                static_cast<std::uint16_t>(config.pulse.httpPort));
            if (!pulseServer->start()) {
                common::fatal(
                    "seer-pulse: cannot bind scrape endpoint: " +
                    pulseServer->error());
            }
            publishPulse();
        }
    }
}

std::vector<MonitorReport>
WorkflowMonitor::feed(const logging::LogRecord &record)
{
    // Everything from arrival onward is "sink" unless an interior
    // stage (parse/route/check/verdict) takes over. Outermost, this scope
    // is the input the stage clock times (null sink: no clock read).
    obs::StageScope scope(obs::Stage::Sink, stageClock);
    std::vector<MonitorReport> reports;

    // seer-flight: capture the raw line at arrival, before reordering
    // — a forensic context must show the stream as it actually came in.
    // Encoded into a reused scratch buffer: this runs per message, and
    // the recorder copies into its own slot anyway.
    if (obsPtr != nullptr && obsPtr->flight() != nullptr) {
        logging::encodeLogLineTo(record, flightScratch);
        obsPtr->flight()->record(record.node, record.timestamp,
                                 flightScratch);
    }

    if (config.ingest.reorderWindowSeconds > 0.0)
        bufferAndRelease(record, reports);
    else
        deliver(record, reports);
    captureBundles(reports);

    if (obsPtr != nullptr && obsPtr->snapshotDue(lastTimestamp)) {
        obsPtr->addSnapshot(healthSample());
        pulseStep();
    }
    return reports;
}

void
WorkflowMonitor::bufferAndRelease(const logging::LogRecord &record,
                                  std::vector<MonitorReport> &reports)
{
    highestSeen = std::max(highestSeen, record.timestamp);

    // Keep the buffer sorted by (timestamp, arrival seq). Streams are
    // mostly ordered, so scanning from the back finds the insertion
    // point in O(1) amortized.
    BufferedRecord entry{record, nextSeq++};
    auto pos = reorderBuffer.end();
    while (pos != reorderBuffer.begin()) {
        auto prev = std::prev(pos);
        if (prev->record.timestamp <= entry.record.timestamp)
            break;
        pos = prev;
    }
    reorderBuffer.insert(pos, std::move(entry));
    ingest.reorderBufferPeak =
        std::max(ingest.reorderBufferPeak, reorderBuffer.size());

    // Watermark release: a record is ripe once everything that could
    // still precede it (within the window) must already have arrived.
    common::SimTime watermark =
        highestSeen - config.ingest.reorderWindowSeconds;
    while (!reorderBuffer.empty() &&
           reorderBuffer.front().record.timestamp <= watermark) {
        logging::LogRecord ripe =
            std::move(reorderBuffer.front().record);
        reorderBuffer.pop_front();
        deliver(ripe, reports);
    }
    // Overflow: force the oldest out rather than buffering unboundedly
    // (a stuck node clock must not wedge the monitor).
    while (reorderBuffer.size() > kReorderBufferCap) {
        logging::LogRecord forced =
            std::move(reorderBuffer.front().record);
        reorderBuffer.pop_front();
        ++ingest.forcedReleases;
        deliver(forced, reports);
    }
}

void
WorkflowMonitor::deliver(const logging::LogRecord &record,
                         std::vector<MonitorReport> &reports)
{
    ++ingest.recordsDelivered;

    // Timestamp guard. The stream can be slightly out of timestamp
    // order (shipping skew); the monitor clock never moves backwards.
    // With the clamp on, the *message* time is pinned to the clock
    // too, so a backwards stamp cannot plant a group in the past and
    // have the next sweep retroactively time it out.
    common::SimTime message_time = record.timestamp;
    common::SimTime now;
    {
        obs::StageScope scope(obs::Stage::Route, stageClock);
        if (record.timestamp < lastTimestamp) {
            ++ingest.nonMonotonicClamped;
            ingest.maxRegressionSeconds =
                std::max(ingest.maxRegressionSeconds,
                         lastTimestamp - record.timestamp);
            if (config.ingest.clampNonMonotonic)
                message_time = lastTimestamp;
        }
        now = std::max(lastTimestamp, message_time);
        lastTimestamp = now;
        anyFed = true;
    }

    // The message and the scan buffers are members reused per record,
    // so a warm monitor allocates nothing between the record and the
    // checker.
    CheckMessage &message = scratchMessage;
    message.identifiers.clear();
    {
        obs::StageScope scope(obs::Stage::Parse, stageClock);
        std::uint64_t templ_hash =
            extractor.scan(record.body, scratchTemplate, scratchVariables);
        message.tpl =
            catalogPtr->find(record.service, scratchTemplate, templ_hash);
        for (const logging::VariableRef &var : scratchVariables) {
            if (var.kind == logging::VariableKind::Number &&
                !config.numbersAsIdentifiers) {
                continue;
            }
            logging::IdToken token = identifiers.intern(var.text);
            // A capped interner refuses new identifiers; the message
            // checks on without the refused token (degraded routing
            // precision, bounded memory).
            if (token == logging::kInvalidIdToken)
                continue;
            message.identifiers.push_back(token);
        }
        message.level = record.level;
        message.record = record.id;
        message.time = message_time;
    }

    // Near-duplicate suppression: an at-least-once shipper re-delivers
    // byte-identical lines, so the key is everything the checker would
    // see — keyed on the *original* stamp so a clamped re-delivery
    // still matches its first delivery. The verdict is computed before
    // the checker runs (the timeout sweep happens even for records that
    // end up suppressed).
    bool suppressed = false;
    if (config.ingest.dedupWindowSeconds > 0.0) {
        obs::StageScope scope(obs::Stage::Route, stageClock);
        std::string key = record.node;
        key += '\x1f';
        key += record.service;
        key += '\x1f';
        key += std::to_string(message.tpl);
        for (logging::IdToken id : message.identifiers) {
            key += '\x1f';
            key += std::to_string(id);
        }
        key += '\x1f';
        key += std::to_string(record.timestamp);

        double window = config.ingest.dedupWindowSeconds;
        while (!recentOrder.empty() &&
               recentOrder.front().first < now - window) {
            auto it = recentKeys.find(recentOrder.front().second);
            if (it != recentKeys.end() &&
                it->second <= recentOrder.front().first) {
                recentKeys.erase(it);
            }
            recentOrder.pop_front();
        }
        auto [it, inserted] = recentKeys.emplace(key, now);
        it->second = now;
        recentOrder.emplace_back(now, std::move(key));
        if (!inserted) {
            ++ingest.duplicatesSuppressed;
            suppressed = true;
        }
    }

    {
        obs::StageScope scope(obs::Stage::Check, stageClock);
        for (CheckEvent &event : checker.sweepTimeouts(
                 now, [this](const std::vector<std::string> &tasks) {
                     return timeoutPolicy.timeoutForCandidates(tasks);
                 })) {
            reports.push_back({std::move(event), false});
        }
        if (!suppressed) {
            for (CheckEvent &event : checker.feed(message))
                reports.push_back({std::move(event), false});
        }
    }
    if (suppressed)
        return;

    {
        obs::StageScope scope(obs::Stage::Verdict, stageClock);
        // Group-cap shedding: bound live state, loudly.
        if (config.ingest.maxActiveGroups > 0 &&
            checker.activeGroups() > config.ingest.maxActiveGroups) {
            for (CheckEvent &event : checker.shedToCap(
                     config.ingest.maxActiveGroups, now)) {
                ++ingest.groupsShed;
                reports.push_back({std::move(event), false});
            }
        }

        // Memory ceiling (seer-vault): same Degraded contract, in
        // bytes. Cadence keys off recordsDelivered — serialised state
        // — so a restored monitor re-checks at the same stream
        // positions.
        if (config.ingest.maxResidentBytes > 0) {
            std::uint64_t interval = std::max<std::uint64_t>(
                1, config.ingest.memoryCheckInterval);
            if (ingest.recordsDelivered % interval == 0) {
                for (CheckEvent &event : checker.shedToMemory(
                         config.ingest.maxResidentBytes, now)) {
                    ++ingest.memoryEvictions;
                    reports.push_back({std::move(event), false});
                }
            }
        }
    }
}

std::vector<MonitorReport>
WorkflowMonitor::feedLine(const std::string &line)
{
    // The wire decode is sink time of the same input feed() goes on.
    obs::StageScope scope(obs::Stage::Sink, stageClock);
    ++ingest.linesSeen;

    logging::DecodeFailure why = logging::DecodeFailure::None;
    auto record = logging::decodeLogLine(line, &why);
    if (!record) {
        switch (why) {
          case logging::DecodeFailure::BadTimestamp:
            ++ingest.malformedBadTimestamp;
            break;
          case logging::DecodeFailure::BadHeader:
            ++ingest.malformedBadHeader;
            break;
          case logging::DecodeFailure::TruncatedPayload:
            ++ingest.malformedTruncatedPayload;
            break;
          case logging::DecodeFailure::None:
            ++ingest.malformedBadHeader;
            break;
        }
        if (quarantined.size() < kQuarantineSampleCap)
            quarantined.push_back({line, why});
        // Malformed lines never reach feed(), so capture them here —
        // garbage on the wire is exactly what a postmortem wants to
        // see. Stamped with the monitor clock; the line's own
        // timestamp is the part that failed to parse.
        if (obsPtr != nullptr && obsPtr->flight() != nullptr)
            obsPtr->flight()->record("<malformed>", lastTimestamp, line);
        return {};
    }
    return feed(*record);
}

std::vector<MonitorReport>
WorkflowMonitor::finish()
{
    std::vector<MonitorReport> reports;

    // Flush the reorder buffer: at end of stream every parked record
    // is ripe by definition.
    while (!reorderBuffer.empty()) {
        logging::LogRecord ripe =
            std::move(reorderBuffer.front().record);
        reorderBuffer.pop_front();
        deliver(ripe, reports);
    }

    if (!anyFed)
        return reports;

    // Give the timeout criterion one last chance to fire. These are
    // end-of-stream reports: the wall clock stopped with the stream,
    // so "overdue at the horizon" is an artefact of stopping, not a
    // live observation.
    double max_timeout = config.timeoutSeconds;
    for (const auto &[task, value] : timeoutPolicy.perTask)
        max_timeout = std::max(max_timeout, value);
    common::SimTime horizon = lastTimestamp + max_timeout * 1.001;
    for (CheckEvent &event : checker.sweepTimeouts(
             horizon, [this](const std::vector<std::string> &tasks) {
                 return timeoutPolicy.timeoutForCandidates(tasks);
             })) {
        reports.push_back({std::move(event), true});
    }
    for (CheckEvent &event : checker.finish(horizon))
        reports.push_back({std::move(event), true});
    captureBundles(reports);

    // Close the health series with a final post-flush observation so
    // the snapshot stream is self-terminating.
    if (obsPtr != nullptr &&
        obsPtr->config().snapshotIntervalSeconds > 0.0) {
        obsPtr->addSnapshot(healthSample());
        pulseStep();
    }
    return reports;
}

obs::HealthSample
WorkflowMonitor::healthSample() const
{
    obs::HealthSample s;
    s.time = lastTimestamp;

    const CheckerStats &c = checker.stats();
    s.messages = c.messages;
    s.decisive = c.decisive;
    s.ambiguous = c.ambiguous;
    s.recoveredPassUnknown = c.recoveredPassUnknown;
    s.recoveredNewSequence = c.recoveredNewSequence;
    s.recoveredOtherSet = c.recoveredOtherSet;
    s.recoveredFalseDependency = c.recoveredFalseDependency;
    s.unmatched = c.unmatched;
    s.accepted = c.accepted;
    s.errorsReported = c.errorsReported;
    s.timeoutsReported = c.timeoutsReported;
    s.timeoutsSuppressed = c.timeoutsSuppressed;
    s.groupsShed = c.groupsShed;
    s.consumeAttempts = c.consumeAttempts;
    s.decisiveFraction = c.decisiveFraction();

    s.activeGroups = checker.activeGroups();
    s.activeIdentifierSets = checker.activeIdentifierSets();

    s.linesSeen = ingest.linesSeen;
    s.recordsDelivered = ingest.recordsDelivered;
    s.malformedLines = ingest.malformed();
    s.nonMonotonicClamped = ingest.nonMonotonicClamped;
    s.duplicatesSuppressed = ingest.duplicatesSuppressed;
    s.forcedReleases = ingest.forcedReleases;
    s.reorderBufferPeak = ingest.reorderBufferPeak;
    s.memoryEvictions = ingest.memoryEvictions;

    logging::InternerStats interner = identifiers.stats();
    s.internerSize = interner.size;
    s.internerHits = interner.hits;
    s.internerMisses = interner.misses;
    s.internerCapRejected = interner.capRejected;

    s.timeoutResolutions = timeoutPolicy.resolutions;
    s.timeoutDefaultFallbacks = timeoutPolicy.defaultFallbacks;

    if (stageClock != nullptr) {
        const obs::Histogram &latency = stageClock->total();
        s.feedP50us = latency.percentile(50.0);
        s.feedP90us = latency.percentile(90.0);
        s.feedP99us = latency.percentile(99.0);
        s.feedMaxUs = latency.maxSeen();
        if (const obs::Histogram *wal =
                stageClock->laps(obs::Stage::WalAppend)) {
            s.walAppendP50us = wal->percentile(50.0);
            s.walAppendP99us = wal->percentile(99.0);
        }
    }
    return s;
}

std::string
WorkflowMonitor::prometheusText()
{
    return obsPtr == nullptr ? std::string()
                             : obsPtr->prometheusText(healthSample());
}

void
WorkflowMonitor::pulseStep()
{
    if (pulsePtr == nullptr)
        return;
    const std::vector<obs::HealthSample> &series = obsPtr->snapshots();
    if (series.empty())
        return;
    pulsePtr->observe(series.back());
    if (pulseServer != nullptr)
        publishPulse();
}

void
WorkflowMonitor::publishPulse()
{
    if (pulseServer == nullptr || pulsePtr == nullptr)
        return;
    obs::TelemetryServer::Documents docs;
    docs.metrics = prometheusText();
    docs.healthz = pulsePtr->healthzJson();
    docs.alerts = pulsePtr->alertsJson();
    docs.buildz = buildzJson();
    pulseServer->publish(std::move(docs));
}

std::vector<std::string>
WorkflowMonitor::drainAlertJson()
{
    return pulsePtr == nullptr ? std::vector<std::string>()
                               : pulsePtr->drainAlertLines();
}

int
WorkflowMonitor::pulsePort() const
{
    return pulseServer == nullptr || !pulseServer->running()
               ? -1
               : static_cast<int>(pulseServer->port());
}

std::string
WorkflowMonitor::healthzJson() const
{
    return pulsePtr == nullptr ? std::string()
                               : pulsePtr->healthzJson();
}

std::string
WorkflowMonitor::buildzJson() const
{
    if (obsPtr == nullptr)
        return std::string();
    return obs::buildInfoJson(
        obsPtr->buildVersion(), obsPtr->modelFingerprint(),
        obsPtr->uptimeSeconds());
}

void
WorkflowMonitor::captureBundles(const std::vector<MonitorReport> &reports)
{
    if (obsPtr == nullptr || obsPtr->flight() == nullptr)
        return;
    for (const MonitorReport &report : reports) {
        switch (report.event.kind) {
          case CheckEventKind::ErrorDetected:
          case CheckEventKind::Timeout:
          case CheckEventKind::LatencyAnomaly: {
            // One pass into one buffer sized for the largest bundle so
            // far: the stored string is the only allocation once warm.
            std::string bundle;
            bundle.reserve(bundleBytesPeak);
            appendBundleJson(bundle, report, *catalogPtr, identifiers,
                             *obsPtr->flight());
            bundleBytesPeak = std::max(bundleBytesPeak, bundle.size());
            obsPtr->flight()->addBundle(std::move(bundle));
            break;
          }
          case CheckEventKind::Accepted:
          case CheckEventKind::Degraded:
            break;
        }
    }
}

std::string
WorkflowMonitor::chromeTraceJson() const
{
    return obsPtr == nullptr || obsPtr->tracer() == nullptr
               ? std::string()
               : obsPtr->tracer()->chromeTraceJson();
}

void
WorkflowMonitor::saveState(common::BinWriter &out) const
{
    identifiers.snapshotState(out);
    out.writeF64(lastTimestamp);
    out.writeBool(anyFed);

    out.writeU64(ingest.linesSeen);
    out.writeU64(ingest.recordsDelivered);
    out.writeU64(ingest.malformedBadTimestamp);
    out.writeU64(ingest.malformedBadHeader);
    out.writeU64(ingest.malformedTruncatedPayload);
    out.writeU64(ingest.nonMonotonicClamped);
    out.writeF64(ingest.maxRegressionSeconds);
    out.writeU64(ingest.duplicatesSuppressed);
    out.writeU64(ingest.reorderBufferPeak);
    out.writeU64(ingest.forcedReleases);
    out.writeU64(ingest.groupsShed);
    out.writeU64(ingest.memoryEvictions);

    out.writeU64(quarantined.size());
    for (const QuarantinedLine &entry : quarantined) {
        out.writeString(entry.line);
        out.writeU8(static_cast<std::uint8_t>(entry.cause));
    }

    out.writeU64(reorderBuffer.size());
    for (const BufferedRecord &entry : reorderBuffer) {
        logging::writeLogRecord(out, entry.record);
        out.writeU64(entry.seq);
    }
    out.writeF64(highestSeen);
    out.writeU64(nextSeq);

    out.writeU64(recentOrder.size());
    for (const auto &[time, key] : recentOrder) {
        out.writeF64(time);
        out.writeString(key);
    }

    timeoutPolicy.saveState(out);
    checker.saveState(out);

    out.writeBool(obsPtr != nullptr);
    if (obsPtr != nullptr)
        obsPtr->saveState(out);
}

bool
WorkflowMonitor::restoreState(common::BinReader &in)
{
    if (!identifiers.restoreState(in))
        return false;
    lastTimestamp = in.readF64();
    anyFed = in.readBool();

    ingest = IngestStats{};
    ingest.linesSeen = in.readU64();
    ingest.recordsDelivered = in.readU64();
    ingest.malformedBadTimestamp = in.readU64();
    ingest.malformedBadHeader = in.readU64();
    ingest.malformedTruncatedPayload = in.readU64();
    ingest.nonMonotonicClamped = in.readU64();
    ingest.maxRegressionSeconds = in.readF64();
    ingest.duplicatesSuppressed = in.readU64();
    ingest.reorderBufferPeak =
        static_cast<std::size_t>(in.readU64());
    ingest.forcedReleases = in.readU64();
    ingest.groupsShed = in.readU64();
    ingest.memoryEvictions = in.readU64();

    std::uint64_t quarantine_count = in.readU64();
    if (!in.ok())
        return false;
    quarantined.clear();
    for (std::uint64_t i = 0; i < quarantine_count; ++i) {
        QuarantinedLine entry;
        entry.line = in.readString();
        entry.cause = static_cast<logging::DecodeFailure>(in.readU8());
        if (!in.ok())
            return false;
        quarantined.push_back(std::move(entry));
    }

    std::uint64_t buffered_count = in.readU64();
    if (!in.ok())
        return false;
    reorderBuffer.clear();
    for (std::uint64_t i = 0; i < buffered_count; ++i) {
        BufferedRecord entry;
        if (!logging::readLogRecord(in, entry.record))
            return false;
        entry.seq = in.readU64();
        reorderBuffer.push_back(std::move(entry));
    }
    highestSeen = in.readF64();
    nextSeq = in.readU64();

    std::uint64_t recent_count = in.readU64();
    if (!in.ok())
        return false;
    recentOrder.clear();
    recentKeys.clear();
    for (std::uint64_t i = 0; i < recent_count; ++i) {
        double time = in.readF64();
        std::string key = in.readString();
        if (!in.ok())
            return false;
        // In-order overwrite reproduces the live map exactly: the
        // newest occurrence of a key wins, as in deliver().
        recentKeys[key] = time;
        recentOrder.emplace_back(time, std::move(key));
    }

    if (!timeoutPolicy.restoreState(in))
        return false;
    if (!checker.restoreState(in))
        return false;

    bool has_obs = in.readBool();
    if (!in.ok() || has_obs != (obsPtr != nullptr)) {
        in.fail();
        return false;
    }
    if (has_obs && !obsPtr->restoreState(in))
        return false;
    return in.ok();
}

} // namespace cloudseer::core
