/**
 * @file
 * JSON rendering of monitor reports for alerting integrations
 * (PagerDuty/Slack webhooks, Elasticsearch alert indices, ...).
 *
 * One report becomes one single-line JSON object:
 *
 *   {"kind":"TIMEOUT","task":"boot","time":83.21,
 *    "endOfStream":false,"messages":9,"records":[1,3,...],
 *    "candidates":["boot"],
 *    "states":["nova-scheduler: ..."],"expected":["nova-compute: ..."]}
 */

#ifndef CLOUDSEER_CORE_MONITOR_REPORT_JSON_HPP
#define CLOUDSEER_CORE_MONITOR_REPORT_JSON_HPP

#include <string>

#include "common/string_util.hpp"
#include "core/monitor/report.hpp"

namespace cloudseer::obs {
class FlightRecorder;
}

namespace cloudseer::logging {
class IdentifierInterner;
}

namespace cloudseer::core {

struct IngestStats;

/** Escape a string per JSON rules (the one escaper, common's). */
using common::jsonEscape;

/**
 * Append one report as a single-line JSON object to `out`, in one pass
 * with no intermediate strings: into a buffer with enough capacity it
 * allocates nothing.
 */
void appendReportJson(std::string &out, const MonitorReport &report,
                      const logging::TemplateCatalog &catalog);

/** Render one report as a single-line JSON object. */
std::string reportToJson(const MonitorReport &report,
                         const logging::TemplateCatalog &catalog);

/**
 * Append one forensic bundle, {"kind":"BUNDLE",...} (DESIGN.md §12),
 * to `out` in the same single pass: reason, task, time and group, the
 * group's identifiers resolved through `interner`, the report record,
 * and the recorder's context (FlightRecorder::appendContextJson).
 */
void appendBundleJson(std::string &out, const MonitorReport &report,
                      const logging::TemplateCatalog &catalog,
                      const logging::IdentifierInterner &interner,
                      const obs::FlightRecorder &recorder);

/**
 * Final summary record for the report stream: checker and ingest
 * counters as one {"kind":"SUMMARY",...} line, emitted after the last
 * report so a captured run is self-describing — a consumer can score
 * accuracy and audit the ingest guards without attaching a debugger.
 */
std::string statsSummaryJson(const CheckerStats &checker,
                             const IngestStats &ingest, double time);

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_MONITOR_REPORT_JSON_HPP
