#include "obs/pulse.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace cloudseer::obs {

namespace {

std::string
formatNumber(double value)
{
    std::ostringstream out;
    out << value;
    return out.str();
}

constexpr std::array<const char *, kPulseSignalCount> kSignalNames = {
    "template_miss_rate",  "divergence_recovery_rate",
    "shed_rate",           "backpressure_rate",
    "error_rate",          "timeout_rate",
    "wal_append_p99_us",   "feed_p99_us",
};

} // namespace

const char *
pulseSignalName(PulseSignal signal)
{
    return kSignalNames[static_cast<std::size_t>(signal)];
}

bool
parsePulseSignal(const std::string &name, PulseSignal &signal)
{
    for (std::size_t i = 0; i < kSignalNames.size(); ++i) {
        if (name == kSignalNames[i]) {
            signal = static_cast<PulseSignal>(i);
            return true;
        }
    }
    return false;
}

bool
pulseSignalIsWallClock(PulseSignal signal)
{
    return signal == PulseSignal::WalAppendP99Us ||
           signal == PulseSignal::FeedP99Us;
}

std::string
PulseRates::toJson() const
{
    std::ostringstream out;
    out << "{\"time\":" << formatNumber(time)
        << ",\"window\":" << formatNumber(windowSeconds)
        << ",\"samples\":" << samplesInWindow << ",\"signals\":{";
    for (std::size_t i = 0; i < kPulseSignalCount; ++i) {
        out << (i == 0 ? "" : ",") << "\"" << kSignalNames[i]
            << "\":{\"value\":" << formatNumber(value[i])
            << ",\"ewma\":" << formatNumber(ewma[i]) << "}";
    }
    out << "}}";
    return out.str();
}

std::vector<AlertRule>
defaultAlertRules()
{
    // Message-clock signals only: the pack must emit identical records
    // from every run of one stream (wall-clock latency signals are
    // opt-in via rules files).
    auto rule = [](const char *name, PulseSignal signal,
                   double threshold, double pending, double hold) {
        AlertRule r;
        r.name = name;
        r.signal = signal;
        r.threshold = threshold;
        r.pendingSeconds = pending;
        r.holdSeconds = hold;
        r.resolveRatio = 0.5;
        return r;
    };
    return {
        rule("template_miss_burn", PulseSignal::TemplateMissRate,
             0.05, 10.0, 30.0),
        rule("divergence_burn", PulseSignal::DivergenceRecoveryRate,
             0.10, 10.0, 30.0),
        rule("shed_burn", PulseSignal::ShedRate, 0.0, 0.0, 30.0),
        rule("backpressure_burn", PulseSignal::BackpressureRate, 1.0,
             10.0, 30.0),
        rule("error_burn", PulseSignal::ErrorRate, 0.01, 10.0, 30.0),
        rule("timeout_burn", PulseSignal::TimeoutRate, 0.05, 10.0,
             30.0),
    };
}

bool
parseAlertRules(const std::string &text,
                std::vector<AlertRule> &rules, std::string &error)
{
    rules.clear();
    std::istringstream in(text);
    std::string line;
    std::size_t line_no = 0;
    auto fail = [&](const std::string &what) {
        error = "line " + std::to_string(line_no) + ": " + what;
        rules.clear();
        return false;
    };
    while (std::getline(in, line)) {
        ++line_no;
        std::istringstream tokens(line);
        std::string word;
        if (!(tokens >> word) || word[0] == '#')
            continue;
        if (word != "rule")
            return fail("expected 'rule', got '" + word + "'");
        AlertRule rule;
        if (!(tokens >> rule.name))
            return fail("missing rule name");
        bool has_signal = false;
        while (tokens >> word) {
            if (word == "ewma") {
                rule.useEwma = true;
                continue;
            }
            std::size_t eq = word.find('=');
            if (eq == std::string::npos)
                return fail("expected key=value, got '" + word + "'");
            std::string key = word.substr(0, eq);
            std::string value = word.substr(eq + 1);
            if (key == "signal") {
                if (!parsePulseSignal(value, rule.signal))
                    return fail("unknown signal '" + value + "'");
                has_signal = true;
            } else if (key == "threshold") {
                rule.threshold = std::atof(value.c_str());
            } else if (key == "pending") {
                rule.pendingSeconds = std::atof(value.c_str());
            } else if (key == "hold") {
                rule.holdSeconds = std::atof(value.c_str());
            } else if (key == "resolve") {
                rule.resolveRatio = std::atof(value.c_str());
                if (rule.resolveRatio <= 0.0 ||
                    rule.resolveRatio > 1.0)
                    return fail("resolve ratio must be in (0, 1]");
            } else {
                return fail("unknown key '" + key + "'");
            }
        }
        if (!has_signal)
            return fail("rule '" + rule.name + "' needs signal=");
        rules.push_back(std::move(rule));
    }
    if (rules.empty())
        return fail("no rules found");
    return true;
}

const char *
alertStateName(AlertState state)
{
    switch (state) {
    case AlertState::Inactive:
        return "inactive";
    case AlertState::Pending:
        return "pending";
    case AlertState::Firing:
        return "firing";
    }
    return "unknown";
}

std::string
AlertRecord::toJson() const
{
    std::ostringstream out;
    out << "{\"kind\":\"ALERT\",\"time\":" << formatNumber(time)
        << ",\"rule\":\"" << common::jsonEscape(rule) << "\",\"signal\":\""
        << pulseSignalName(signal) << "\",\"state\":\"" << state
        << "\",\"since\":" << formatNumber(since)
        << ",\"value\":" << formatNumber(value)
        << ",\"threshold\":" << formatNumber(threshold) << "}";
    return out.str();
}

AlertEngine::AlertEngine(std::vector<AlertRule> rule_pack)
    : pack(std::move(rule_pack)), states(pack.size())
{
}

std::vector<AlertRecord>
AlertEngine::evaluate(const PulseRates &rates)
{
    std::vector<AlertRecord> out;
    for (std::size_t i = 0; i < pack.size(); ++i) {
        const AlertRule &rule = pack[i];
        RuleState &st = states[i];
        double value = rule.useEwma ? rates.ewmaOf(rule.signal)
                                    : rates.valueOf(rule.signal);
        st.lastValue = value;
        double now = rates.time;
        bool above = value > rule.threshold;

        auto record = [&](const char *state_name) {
            AlertRecord rec;
            rec.rule = rule.name;
            rec.signal = rule.signal;
            rec.state = state_name;
            rec.time = now;
            rec.since = st.since;
            rec.value = value;
            rec.threshold = rule.threshold;
            out.push_back(std::move(rec));
        };

        switch (st.state) {
        case AlertState::Inactive:
            if (above) {
                st.since = now;
                if (rule.pendingSeconds <= 0.0) {
                    st.state = AlertState::Firing;
                    st.firingSince = now;
                    record("firing");
                } else {
                    st.state = AlertState::Pending;
                    record("pending");
                }
            }
            break;
        case AlertState::Pending:
            if (!above) {
                // Cancelled before firing: silent — it never paged.
                st.state = AlertState::Inactive;
            } else if (now - st.since >= rule.pendingSeconds) {
                st.state = AlertState::Firing;
                st.firingSince = now;
                record("firing");
            }
            break;
        case AlertState::Firing: {
            // Hysteresis (drop below resolveRatio*threshold) AND the
            // min-hold must both pass before the page resolves. A
            // zero-threshold rule has no hysteresis band below it, so
            // it clears once the signal returns to the threshold
            // itself — otherwise a single shed would page forever.
            bool cleared =
                rule.threshold > 0.0
                    ? value < rule.resolveRatio * rule.threshold
                    : value <= rule.threshold;
            if (cleared && now - st.firingSince >= rule.holdSeconds) {
                st.state = AlertState::Inactive;
                record("resolved");
            }
            break;
        }
        }
    }
    return out;
}

bool
AlertEngine::anyFiring() const
{
    for (const RuleState &st : states)
        if (st.state == AlertState::Firing)
            return true;
    return false;
}

std::string
AlertEngine::activeJson(double now) const
{
    std::ostringstream out;
    out << "{\"time\":" << formatNumber(now) << ",\"active\":[";
    bool first = true;
    for (std::size_t i = 0; i < pack.size(); ++i) {
        const RuleState &st = states[i];
        if (st.state == AlertState::Inactive)
            continue;
        out << (first ? "" : ",") << "{\"rule\":\""
            << common::jsonEscape(pack[i].name) << "\",\"signal\":\""
            << pulseSignalName(pack[i].signal) << "\",\"state\":\""
            << alertStateName(st.state)
            << "\",\"since\":" << formatNumber(st.since)
            << ",\"value\":" << formatNumber(st.lastValue)
            << ",\"threshold\":" << formatNumber(pack[i].threshold)
            << "}";
        first = false;
    }
    out << "]}";
    return out.str();
}

RateEngine::RateEngine(double window_seconds, double ewma_alpha)
    : windowSeconds(window_seconds), alpha(ewma_alpha)
{
    CS_ASSERT(windowSeconds > 0.0, "pulse window must be positive");
    CS_ASSERT(alpha > 0.0 && alpha <= 1.0,
              "EWMA alpha must be in (0, 1]");
}

const PulseRates &
RateEngine::observe(const HealthSample &sample)
{
    window.push_back(sample);
    // Keep the window spanning windowSeconds behind the newest
    // sample; the oldest retained sample anchors the deltas.
    while (window.size() >= 2 &&
           window[1].time <= sample.time - windowSeconds)
        window.pop_front();

    const HealthSample &oldest = window.front();
    const HealthSample &newest = window.back();
    double elapsed = std::max(newest.time - oldest.time, 1e-9);
    auto delta = [](std::uint64_t now_v, std::uint64_t then_v) {
        return now_v >= then_v ? now_v - then_v : 0;
    };

    std::uint64_t messages = delta(newest.messages, oldest.messages);
    double per_message =
        messages == 0 ? 0.0 : 1.0 / static_cast<double>(messages);

    current.time = newest.time;
    current.windowSeconds = newest.time - oldest.time;
    current.samplesInWindow = window.size();
    current.shedDelta = delta(newest.groupsShed, oldest.groupsShed);
    current.evictionDelta =
        delta(newest.memoryEvictions, oldest.memoryEvictions);
    current.forcedReleaseDelta =
        delta(newest.forcedReleases, oldest.forcedReleases);
    current.capRejectDelta =
        delta(newest.internerCapRejected, oldest.internerCapRejected);

    auto set = [this](PulseSignal s, double v) {
        current.value[static_cast<std::size_t>(s)] = v;
    };
    set(PulseSignal::TemplateMissRate,
        static_cast<double>(delta(newest.recoveredPassUnknown,
                                  oldest.recoveredPassUnknown)) *
            per_message);
    set(PulseSignal::DivergenceRecoveryRate,
        static_cast<double>(
            delta(newest.recoveredOtherSet, oldest.recoveredOtherSet) +
            delta(newest.recoveredFalseDependency,
                  oldest.recoveredFalseDependency)) *
            per_message);
    set(PulseSignal::ShedRate,
        static_cast<double>(current.shedDelta +
                            current.evictionDelta) /
            elapsed);
    set(PulseSignal::BackpressureRate,
        static_cast<double>(current.forcedReleaseDelta) / elapsed);
    set(PulseSignal::ErrorRate,
        static_cast<double>(
            delta(newest.errorsReported, oldest.errorsReported)) *
            per_message);
    set(PulseSignal::TimeoutRate,
        static_cast<double>(
            delta(newest.timeoutsReported, oldest.timeoutsReported)) *
            per_message);
    set(PulseSignal::WalAppendP99Us, newest.walAppendP99us);
    set(PulseSignal::FeedP99Us, newest.feedP99us);

    if (!anyEwma) {
        current.ewma = current.value;
        anyEwma = true;
    } else {
        for (std::size_t i = 0; i < kPulseSignalCount; ++i)
            current.ewma[i] = alpha * current.value[i] +
                              (1.0 - alpha) * current.ewma[i];
    }
    return current;
}

PulseEngine::PulseEngine(const PulseConfig &config)
    : cfg(config), rateEngine(config.windowSeconds, config.ewmaAlpha),
      alertEngine(config.rules.empty() ? defaultAlertRules()
                                       : config.rules)
{
    if (!cfg.alertLogPath.empty())
        alertLog.open(cfg.alertLogPath, std::ios::app);
}

void
PulseEngine::observe(const HealthSample &sample)
{
    const PulseRates &rates = rateEngine.observe(sample);
    for (const AlertRecord &record : alertEngine.evaluate(rates)) {
        std::string line = record.toJson();
        if (alertLog.is_open()) {
            alertLog << line << "\n";
            alertLog.flush();
        }
        pendingLines.push_back(std::move(line));
    }
}

bool
PulseEngine::degraded() const
{
    const PulseRates &r = rateEngine.rates();
    return alertEngine.anyFiring() || r.shedDelta > 0 ||
           r.evictionDelta > 0 || r.forcedReleaseDelta > 0 ||
           r.capRejectDelta > 0;
}

std::string
PulseEngine::healthzJson() const
{
    const PulseRates &r = rateEngine.rates();
    std::ostringstream out;
    out << "{\"status\":\"" << (degraded() ? "degraded" : "ok")
        << "\",\"time\":" << formatNumber(r.time)
        << ",\"firing\":" << (alertEngine.anyFiring() ? 1 : 0)
        << ",\"window\":{\"shed\":" << r.shedDelta
        << ",\"evictions\":" << r.evictionDelta
        << ",\"forcedReleases\":" << r.forcedReleaseDelta
        << ",\"internerCapRejected\":" << r.capRejectDelta << "}}";
    return out.str();
}

std::string
PulseEngine::alertsJson() const
{
    return alertEngine.activeJson(rateEngine.rates().time);
}

std::vector<std::string>
PulseEngine::drainAlertLines()
{
    std::vector<std::string> out;
    out.swap(pendingLines);
    return out;
}

std::string
buildInfoJson(const std::string &version,
              const std::string &model_fingerprint,
              double uptime_seconds)
{
    std::ostringstream out;
    out << "{\"version\":\"" << common::jsonEscape(version)
        << "\",\"modelFingerprint\":\"" << common::jsonEscape(model_fingerprint)
        << "\",\"uptimeSeconds\":" << formatNumber(uptime_seconds)
        << "}";
    return out.str();
}

TelemetryServer::TelemetryServer(const std::string &bind_address,
                                 std::uint16_t port)
    : server(bind_address, port)
{
    current.metrics = "";
    current.healthz = "{\"status\":\"ok\",\"time\":0}";
    current.alerts = "{\"time\":0,\"active\":[]}";
    current.buildz = "{}";
    server.handle("/metrics", [this] {
        std::lock_guard<std::mutex> lock(mutex);
        return serve(current.metrics,
                     "text/plain; version=0.0.4; charset=utf-8");
    });
    server.handle("/healthz", [this] {
        std::lock_guard<std::mutex> lock(mutex);
        return serve(current.healthz, "application/json");
    });
    server.handle("/alerts", [this] {
        std::lock_guard<std::mutex> lock(mutex);
        return serve(current.alerts, "application/json");
    });
    server.handle("/buildz", [this] {
        std::lock_guard<std::mutex> lock(mutex);
        return serve(current.buildz, "application/json");
    });
}

bool
TelemetryServer::start()
{
    return server.start();
}

void
TelemetryServer::stop()
{
    server.stop();
}

void
TelemetryServer::publish(Documents docs)
{
    std::lock_guard<std::mutex> lock(mutex);
    current = std::move(docs);
}

common::HttpResponse
TelemetryServer::serve(const std::string &body,
                       const std::string &content_type)
{
    common::HttpResponse response;
    response.status = body.empty() ? 503 : 200;
    response.contentType = content_type;
    response.body = body.empty() ? "not published yet\n" : body;
    return response;
}

} // namespace cloudseer::obs
