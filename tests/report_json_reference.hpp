/**
 * @file
 * Frozen reference copies of the report and forensic-bundle renderers
 * as they stood before the one-pass rewrite: the character-at-a-time
 * jsonEscape, the snprintf formatDouble, the concatenating
 * reportToJson and forensicBundleJson, and the copying,
 * stable-sorting flight-recorder context.
 *
 * report_json_test holds the production renderers to these outputs.
 * They are an oracle: do not change them to match new behaviour. The
 * one input on which production differs on purpose is a fixed-point
 * number wider than 63 bytes (60 or more integer digits at three
 * decimals): the reference's 64-byte buffer truncates it, production
 * writes every digit. Tests keep such values out of the differentials
 * and pin that outcome separately.
 */

#ifndef CLOUDSEER_TESTS_REPORT_JSON_REFERENCE_HPP
#define CLOUDSEER_TESTS_REPORT_JSON_REFERENCE_HPP

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/monitor/report.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/template_catalog.hpp"

namespace reference {

using cloudseer::core::CheckEvent;
using cloudseer::core::EdgeTiming;
using cloudseer::core::MonitorReport;

inline std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size() + 8);
    for (char c : raw) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    return out;
}

inline std::string
formatDouble(double value, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

inline std::string
jsonStringArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "\"" + jsonEscape(items[i]) + "\"";
    }
    out += "]";
    return out;
}

inline std::string
reportToJson(const MonitorReport &report,
             const cloudseer::logging::TemplateCatalog &catalog)
{
    const CheckEvent &event = report.event;

    std::vector<std::string> states;
    for (cloudseer::logging::TemplateId tpl : event.frontierTemplates)
        states.push_back(catalog.label(tpl));
    std::vector<std::string> expected;
    for (cloudseer::logging::TemplateId tpl : event.expectedTemplates)
        expected.push_back(catalog.label(tpl));

    std::string out = "{";
    out += "\"kind\":\"" +
           std::string(cloudseer::core::checkEventKindName(event.kind)) +
           "\",";
    out += "\"task\":\"" + jsonEscape(event.taskName) + "\",";
    out += "\"time\":" + formatDouble(event.time, 3) + ",";
    out += "\"start\":" + formatDouble(event.startTime, 3) + ",";
    out += "\"duration\":" +
           formatDouble(event.time - event.startTime, 3) + ",";
    out += std::string("\"endOfStream\":") +
           (report.endOfStream ? "true" : "false") + ",";
    out += "\"messages\":" + std::to_string(event.records.size()) + ",";
    out += "\"records\":[";
    for (std::size_t i = 0; i < event.records.size(); ++i) {
        if (i > 0)
            out += ",";
        out += std::to_string(event.records[i]);
    }
    out += "],";
    out += "\"candidates\":" + jsonStringArray(event.candidateTasks) +
           ",";
    out += "\"states\":" + jsonStringArray(states) + ",";
    out += "\"expected\":" + jsonStringArray(expected);
    if (event.totalBudget >= 0.0) {
        out += ",\"latency\":{";
        out += "\"total\":" + formatDouble(event.totalElapsed, 3) + ",";
        out += "\"budget\":" + formatDouble(event.totalBudget, 3) + ",";
        out += "\"criticalPath\":[";
        for (std::size_t i = 0; i < event.criticalPath.size(); ++i) {
            if (i > 0)
                out += ",";
            out += std::to_string(event.criticalPath[i]);
        }
        out += "],\"edges\":[";
        for (std::size_t i = 0; i < event.edgeTimings.size(); ++i) {
            const EdgeTiming &timing = event.edgeTimings[i];
            if (i > 0)
                out += ",";
            out += "{\"from\":" + std::to_string(timing.from) +
                   ",\"to\":" + std::to_string(timing.to) +
                   ",\"fromLabel\":\"" +
                   jsonEscape(catalog.label(timing.fromTpl)) +
                   "\",\"toLabel\":\"" +
                   jsonEscape(catalog.label(timing.toTpl)) +
                   "\",\"elapsed\":" + formatDouble(timing.elapsed, 3) +
                   ",\"budget\":" + formatDouble(timing.budget, 3) +
                   ",\"exceeded\":" +
                   (timing.exceeded ? "true" : "false") + "}";
        }
        out += "]}";
    }
    out += "}";
    return out;
}

/** One captured raw line, copied out of the recorder. */
struct ContextLine
{
    std::string node;
    double time = 0.0;
    std::string line;
};

/** The flight recorder's rings and its copying, stable-sorted context. */
class ContextRecorder
{
  public:
    ContextRecorder(std::size_t per_node_capacity, std::size_t max_nodes)
        : capacity(per_node_capacity), maxNodes(max_nodes)
    {
    }

    void
    record(const std::string &node, double time, const std::string &line)
    {
        if (capacity == 0)
            return;
        auto it = rings.find(node);
        if (it == rings.end()) {
            if (rings.size() >= maxNodes)
                return;
            it = rings.emplace(node, Ring{}).first;
        }
        Ring &ring = it->second;
        if (ring.slots.size() < capacity) {
            ring.slots.push_back({time, line});
        } else {
            ring.slots[ring.next] = {time, line};
            ring.next = (ring.next + 1) % capacity;
        }
    }

    std::vector<ContextLine>
    context() const
    {
        std::vector<ContextLine> out;
        for (const auto &[node, ring] : rings) {
            for (std::size_t i = 0; i < ring.slots.size(); ++i) {
                std::size_t at = ring.slots.size() < capacity
                                     ? i
                                     : (ring.next + i) % ring.slots.size();
                out.push_back(
                    {node, ring.slots[at].first, ring.slots[at].second});
            }
        }
        std::stable_sort(out.begin(), out.end(),
                         [](const ContextLine &a, const ContextLine &b) {
                             if (a.time != b.time)
                                 return a.time < b.time;
                             return a.node < b.node;
                         });
        return out;
    }

  private:
    struct Ring
    {
        std::vector<std::pair<double, std::string>> slots;
        std::size_t next = 0;
    };

    std::size_t capacity;
    std::size_t maxNodes;
    std::map<std::string, Ring> rings;
};

/** The elements of a bundle's "context" array, without brackets. */
inline std::string
contextJson(const std::vector<ContextLine> &context)
{
    std::string out;
    bool first = true;
    for (const ContextLine &line : context) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"node\":\"" + jsonEscape(line.node) + "\",";
        out += "\"time\":" + formatDouble(line.time, 3) + ",";
        out += "\"line\":\"" + jsonEscape(line.line) + "\"}";
    }
    return out;
}

inline std::string
forensicBundleJson(const MonitorReport &report,
                   const cloudseer::logging::TemplateCatalog &catalog,
                   const cloudseer::logging::IdentifierInterner &interner,
                   const std::vector<ContextLine> &context)
{
    std::string out = "{\"kind\":\"BUNDLE\",";
    out += "\"reason\":\"";
    out += cloudseer::core::checkEventKindName(report.event.kind);
    out += "\",";
    out += "\"task\":\"" + jsonEscape(report.event.taskName) + "\",";
    out += "\"time\":" + formatDouble(report.event.time, 3) + ",";
    out += "\"group\":" + std::to_string(report.event.group) + ",";
    out += "\"identifiers\":[";
    for (std::size_t i = 0; i < report.event.identifiers.size(); ++i) {
        if (i > 0)
            out += ",";
        out += "\"" +
               jsonEscape(interner.text(report.event.identifiers[i])) +
               "\"";
    }
    out += "],";
    out += "\"report\":" + reference::reportToJson(report, catalog) + ",";
    out += "\"context\":[" + contextJson(context) + "]}";
    return out;
}

} // namespace reference

#endif // CLOUDSEER_TESTS_REPORT_JSON_REFERENCE_HPP
