#include "core/monitor/report_json.hpp"

#include "common/string_util.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "logging/identifier_interner.hpp"
#include "obs/flight_recorder.hpp"

namespace cloudseer::core {

namespace {

using common::appendFixed;
using common::appendInt;
using common::appendJsonEscaped;

void
appendStringArray(std::string &out, const std::vector<std::string> &items)
{
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        appendJsonEscaped(out, items[i]);
        out += '"';
    }
    out += ']';
}

/** TemplateCatalog::label ("service: text"), escaped, without the
 *  temporary: ": " needs no escaping, so the parts escape alone. */
void
appendLabel(std::string &out, const logging::TemplateCatalog &catalog,
            logging::TemplateId tpl)
{
    appendJsonEscaped(out, catalog.service(tpl));
    out += ": ";
    appendJsonEscaped(out, catalog.text(tpl));
}

void
appendLabelArray(std::string &out,
                 const logging::TemplateCatalog &catalog,
                 const std::vector<logging::TemplateId> &templates)
{
    out += '[';
    for (std::size_t i = 0; i < templates.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        appendLabel(out, catalog, templates[i]);
        out += '"';
    }
    out += ']';
}

template <typename Int>
void
appendIntArray(std::string &out, const std::vector<Int> &items)
{
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ',';
        appendInt(out, items[i]);
    }
    out += ']';
}

} // namespace

void
appendReportJson(std::string &out, const MonitorReport &report,
                 const logging::TemplateCatalog &catalog)
{
    const CheckEvent &event = report.event;

    out += "{\"kind\":\"";
    out += checkEventKindName(event.kind);
    out += "\",\"task\":\"";
    appendJsonEscaped(out, event.taskName);
    out += "\",\"time\":";
    appendFixed(out, event.time, 3);
    out += ",\"start\":";
    appendFixed(out, event.startTime, 3);
    out += ",\"duration\":";
    appendFixed(out, event.time - event.startTime, 3);
    out += report.endOfStream ? ",\"endOfStream\":true"
                              : ",\"endOfStream\":false";
    out += ",\"messages\":";
    appendInt(out, event.records.size());
    out += ",\"records\":";
    appendIntArray(out, event.records);
    out += ",\"candidates\":";
    appendStringArray(out, event.candidateTasks);
    out += ",\"states\":";
    appendLabelArray(out, catalog, event.frontierTemplates);
    out += ",\"expected\":";
    appendLabelArray(out, catalog, event.expectedTemplates);
    if (event.totalBudget >= 0.0) {
        out += ",\"latency\":{\"total\":";
        appendFixed(out, event.totalElapsed, 3);
        out += ",\"budget\":";
        appendFixed(out, event.totalBudget, 3);
        out += ",\"criticalPath\":";
        appendIntArray(out, event.criticalPath);
        out += ",\"edges\":[";
        for (std::size_t i = 0; i < event.edgeTimings.size(); ++i) {
            const EdgeTiming &timing = event.edgeTimings[i];
            if (i > 0)
                out += ',';
            out += "{\"from\":";
            appendInt(out, timing.from);
            out += ",\"to\":";
            appendInt(out, timing.to);
            out += ",\"fromLabel\":\"";
            appendLabel(out, catalog, timing.fromTpl);
            out += "\",\"toLabel\":\"";
            appendLabel(out, catalog, timing.toTpl);
            out += "\",\"elapsed\":";
            appendFixed(out, timing.elapsed, 3);
            out += ",\"budget\":";
            appendFixed(out, timing.budget, 3);
            out += timing.exceeded ? ",\"exceeded\":true}"
                                   : ",\"exceeded\":false}";
        }
        out += "]}";
    }
    out += '}';
}

std::string
reportToJson(const MonitorReport &report,
             const logging::TemplateCatalog &catalog)
{
    // Most reports fit (about 220 bytes on the paper workloads), so
    // the common case allocates once.
    std::string out;
    out.reserve(512);
    appendReportJson(out, report, catalog);
    return out;
}

void
appendBundleJson(std::string &out, const MonitorReport &report,
                 const logging::TemplateCatalog &catalog,
                 const logging::IdentifierInterner &interner,
                 const obs::FlightRecorder &recorder)
{
    const CheckEvent &event = report.event;

    out += "{\"kind\":\"BUNDLE\",\"reason\":\"";
    out += checkEventKindName(event.kind);
    out += "\",\"task\":\"";
    appendJsonEscaped(out, event.taskName);
    out += "\",\"time\":";
    appendFixed(out, event.time, 3);
    out += ",\"group\":";
    appendInt(out, event.group);

    // The group's accumulated identifier set, resolved to text — the
    // handles an operator greps the wider infrastructure logs for.
    out += ",\"identifiers\":[";
    for (std::size_t i = 0; i < event.identifiers.size(); ++i) {
        if (i > 0)
            out += ',';
        out += '"';
        appendJsonEscaped(out, interner.text(event.identifiers[i]));
        out += '"';
    }

    // The full report record: group state (states/expected), ambiguity
    // alternatives (candidates), per-edge timings (latency).
    out += "],\"report\":";
    appendReportJson(out, report, catalog);

    // Frozen flight-recorder rings: the raw lines surrounding the
    // failure, merged across nodes in time order.
    out += ",\"context\":[";
    recorder.appendContextJson(out);
    out += "]}";
}

std::string
statsSummaryJson(const CheckerStats &checker, const IngestStats &ingest,
                 double time)
{
    std::string out = "{\"kind\":\"SUMMARY\",";
    out += "\"time\":" + common::formatDouble(time, 3) + ",";
    out += "\"checker\":{";
    out += "\"messages\":" + std::to_string(checker.messages) + ",";
    out += "\"decisive\":" + std::to_string(checker.decisive) + ",";
    out += "\"ambiguous\":" + std::to_string(checker.ambiguous) + ",";
    out += "\"recoveries\":{\"a\":" +
           std::to_string(checker.recoveredPassUnknown) + ",\"b\":" +
           std::to_string(checker.recoveredNewSequence) + ",\"c\":" +
           std::to_string(checker.recoveredOtherSet) + ",\"d\":" +
           std::to_string(checker.recoveredFalseDependency) + "},";
    out += "\"unmatched\":" + std::to_string(checker.unmatched) + ",";
    out += "\"accepted\":" + std::to_string(checker.accepted) + ",";
    out += "\"errors\":" + std::to_string(checker.errorsReported) + ",";
    out += "\"timeouts\":" + std::to_string(checker.timeoutsReported) +
           ",";
    out += "\"timeoutsSuppressed\":" +
           std::to_string(checker.timeoutsSuppressed) + ",";
    out += "\"latencyAnomalies\":" +
           std::to_string(checker.latencyAnomalies) + ",";
    out += "\"shed\":" + std::to_string(checker.groupsShed) + ",";
    out += "\"consumeAttempts\":" +
           std::to_string(checker.consumeAttempts) + ",";
    out += "\"decisiveFraction\":" +
           common::formatDouble(checker.decisiveFraction(), 4) + "},";
    out += "\"ingest\":{";
    out += "\"lines\":" + std::to_string(ingest.linesSeen) + ",";
    out += "\"delivered\":" + std::to_string(ingest.recordsDelivered) +
           ",";
    out += "\"malformed\":" + std::to_string(ingest.malformed()) + ",";
    out += "\"clamped\":" + std::to_string(ingest.nonMonotonicClamped) +
           ",";
    out += "\"duplicates\":" +
           std::to_string(ingest.duplicatesSuppressed) + ",";
    out += "\"forcedReleases\":" +
           std::to_string(ingest.forcedReleases) + ",";
    out += "\"reorderPeak\":" +
           std::to_string(ingest.reorderBufferPeak) + "}}";
    return out;
}

} // namespace cloudseer::core
