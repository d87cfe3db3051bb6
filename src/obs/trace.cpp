#include "obs/trace.hpp"

#include <algorithm>

#include "common/string_util.hpp"

namespace cloudseer::obs {

const char *
spanEndName(SpanEnd end)
{
    switch (end) {
      case SpanEnd::Accepted:
        return "accepted";
      case SpanEnd::Diverged:
        return "diverged";
      case SpanEnd::TimedOut:
        return "timed-out";
      case SpanEnd::Shed:
        return "shed";
      case SpanEnd::Pruned:
        return "pruned";
      case SpanEnd::EndOfStream:
        return "end-of-stream";
    }
    return "unknown";
}

const char *
consumeAnnotationName(ConsumeAnnotation kind)
{
    switch (kind) {
      case ConsumeAnnotation::Decisive:
        return "decisive";
      case ConsumeAnnotation::Ambiguous:
        return "ambiguous";
      case ConsumeAnnotation::RecoveryNewSequence:
        return "recovery-b-new-sequence";
      case ConsumeAnnotation::RecoveryOtherSet:
        return "recovery-c-other-set";
      case ConsumeAnnotation::RecoveryFalseDependency:
        return "recovery-d-false-dependency";
    }
    return "unknown";
}

ExecutionTracer::ExecutionTracer(std::size_t max_spans)
    : maxSpans(std::max<std::size_t>(max_spans, 1))
{
}

void
ExecutionTracer::attachHistograms(Histogram *duration_seconds,
                                  Histogram *messages_per_span)
{
    durationHistogram = duration_seconds;
    messagesHistogram = messages_per_span;
}

void
ExecutionTracer::beginSpan(std::uint64_t group, double time)
{
    ExecutionSpan span;
    span.group = group;
    span.start = time;
    span.end = time;
    open.insert_or_assign(group, std::move(span));
}

void
ExecutionTracer::annotate(std::uint64_t group, double time,
                          ConsumeAnnotation kind)
{
    auto it = open.find(group);
    if (it == open.end())
        return;
    it->second.events.push_back({time, kind});
    it->second.end = std::max(it->second.end, time);
}

void
ExecutionTracer::addTransitions(std::uint64_t group,
                                std::vector<SpanTransition> transitions)
{
    auto it = open.find(group);
    if (it == open.end())
        return;
    std::vector<SpanTransition> &dest = it->second.transitions;
    if (dest.empty()) {
        dest = std::move(transitions);
    } else {
        dest.insert(dest.end(),
                    std::make_move_iterator(transitions.begin()),
                    std::make_move_iterator(transitions.end()));
    }
}

void
ExecutionTracer::endSpan(std::uint64_t group, double time,
                         SpanEnd reason, const std::string &task,
                         std::uint64_t messages)
{
    auto it = open.find(group);
    if (it == open.end())
        return;
    ExecutionSpan span = std::move(it->second);
    open.erase(it);
    span.open = false;
    span.end = std::max(span.start, time);
    span.endReason = reason;
    span.task = task;
    span.messages = messages;
    if (durationHistogram != nullptr)
        durationHistogram->record(span.end - span.start);
    if (messagesHistogram != nullptr)
        messagesHistogram->record(static_cast<double>(messages));
    closed.push_back(std::move(span));
    while (closed.size() > maxSpans) {
        closed.pop_front();
        ++dropped;
    }
}

namespace {

/** Message-clock seconds -> integral trace microseconds. */
long long
traceMicros(double seconds)
{
    return static_cast<long long>(seconds * 1e6 + 0.5);
}

} // namespace

void
ExecutionTracer::appendSpanJson(std::string &out,
                                const ExecutionSpan &span, bool &first)
{
    auto comma = [&out, &first] {
        if (!first)
            out += ",\n";
        first = false;
    };

    std::string name =
        span.task.empty() ? "group-" + std::to_string(span.group)
                          : span.task;
    comma();
    out += "{\"name\":\"";
    common::appendJsonEscaped(out, name);
    out += "\",\"cat\":\"execution\",\"ph\":\"X\",\"ts\":" +
           std::to_string(traceMicros(span.start)) +
           ",\"dur\":" +
           std::to_string(traceMicros(span.end) -
                          traceMicros(span.start)) +
           ",\"pid\":1,\"tid\":" + std::to_string(span.group) +
           ",\"args\":{\"group\":" + std::to_string(span.group) +
           ",\"end\":\"" +
           (span.open ? "open" : spanEndName(span.endReason)) +
           "\",\"messages\":" + std::to_string(span.messages) + "}}";
    for (const SpanEvent &event : span.events) {
        comma();
        out += "{\"name\":\"";
        out += consumeAnnotationName(event.kind);
        out += "\",\"cat\":\"consume\",\"ph\":\"i\",\"ts\":" +
               std::to_string(traceMicros(event.time)) +
               ",\"pid\":1,\"tid\":" + std::to_string(span.group) +
               ",\"s\":\"t\"}";
    }
    // Transition slices nest under the span in Perfetto because they
    // share its tid and fall inside its [start, end] window.
    for (const SpanTransition &transition : span.transitions) {
        comma();
        out += "{\"name\":\"";
        common::appendJsonEscaped(out, transition.name);
        out += "\",\"cat\":\"transition\",\"ph\":\"X\",\"ts\":" +
               std::to_string(traceMicros(transition.start)) +
               ",\"dur\":" +
               std::to_string(
                   traceMicros(transition.start + transition.dur) -
                   traceMicros(transition.start)) +
               ",\"pid\":1,\"tid\":" + std::to_string(span.group) +
               ",\"args\":{\"overBudget\":" +
               (transition.overBudget ? "true" : "false") + "}}";
    }
}

std::string
ExecutionTracer::chromeTraceJson() const
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    for (const ExecutionSpan &span : closed)
        appendSpanJson(out, span, first);
    // Open spans export too (a live monitor can snapshot mid-run);
    // sorted by group id for deterministic output.
    std::vector<const ExecutionSpan *> live;
    live.reserve(open.size());
    for (const auto &[gid, span] : open)
        live.push_back(&span);
    std::sort(live.begin(), live.end(),
              [](const ExecutionSpan *a, const ExecutionSpan *b) {
                  return a->group < b->group;
              });
    for (const ExecutionSpan *span : live)
        appendSpanJson(out, *span, first);
    out += "\n]}\n";
    return out;
}

} // namespace cloudseer::obs
