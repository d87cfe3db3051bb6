/**
 * @file
 * seer-bench-diff: the perf-regression ledger's comparator (DESIGN.md
 * §17). Pairs a fresh BENCH_throughput.json against the committed one
 * level-by-level and exits nonzero when any paired metric regresses
 * past its tolerance band:
 *
 *     seer-bench-diff BASE.json FRESH.json [--tolerance F]
 *                     [--ratios-only] [--json]
 *
 * Metric classes and their bands:
 *   - throughput ("indexed.mps", "*_base_mps", ...):
 *     higher is better; regressed when fresh < base * (1 - tolerance)
 *     (default 0.10 — a 20% drop always trips it).
 *   - speedups ("speedup", "prove_speedup"):
 *     higher is better, same relative band — these are
 *     machine-independent ratios, so they survive hardware changes.
 *   - overheads ("*_overhead"): lower is better; regressed when
 *     fresh > base + 0.10 absolute (overheads are small fractions, a
 *     relative band on 0.01 would be noise-trippable).
 *   - "profile_tagged_fraction": higher is better, 0.10 absolute band.
 *
 * A metric present in the base but missing from the fresh run is a
 * regression (the fresh sweep silently lost a path); metrics only the
 * fresh run has are reported as new and pass. --ratios-only drops the
 * absolute-throughput class, which is how CI compares runs across
 * heterogeneous runners without chasing hardware deltas. --json emits
 * the same verdicts as one machine-readable document on stdout.
 *
 * Exit: 0 clean, 1 regression, 2 usage or unreadable input.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

/** Metrics for one in-flight level: flat name → value. */
using LevelMetrics = std::map<std::string, double>;

/** All levels of one bench document, keyed by in-flight depth. */
using BenchMetrics = std::map<int, LevelMetrics>;

enum class MetricClass
{
    Throughput,   ///< higher better, relative band
    Ratio,        ///< higher better, relative band, hw-independent
    Overhead,     ///< lower better, absolute band
    TaggedFloor,  ///< higher better, absolute band
    Ignore,       ///< latencies, counters, wall clock — not gated
};

MetricClass
classify(const std::string &name)
{
    auto ends_with = [&name](const char *suffix) {
        std::size_t n = std::strlen(suffix);
        return name.size() >= n &&
               name.compare(name.size() - n, n, suffix) == 0;
    };
    if (ends_with("_overhead"))
        return MetricClass::Overhead;
    if (name == "speedup" || name == "prove_speedup")
        return MetricClass::Ratio;
    if (name == "profile_tagged_fraction")
        return MetricClass::TaggedFloor;
    if (ends_with(".mps") || ends_with("_mps"))
        return MetricClass::Throughput;
    return MetricClass::Ignore;
}

/**
 * Pull the gated metrics out of one BENCH_throughput.json. Not a
 * general JSON parser — just enough for the document this repo's
 * bench writes: per level, the path objects' "mps" fields become
 * "<path>.mps" and bare numeric fields keep their key.
 */
bool
parseBench(const std::string &path, BenchMetrics &out)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "seer-bench-diff: cannot open " << path << "\n";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string text = buffer.str();
    if (text.find("\"bench\": \"throughput\"") == std::string::npos &&
        text.find("\"bench\":\"throughput\"") == std::string::npos) {
        std::cerr << "seer-bench-diff: " << path
                  << " is not a throughput bench document\n";
        return false;
    }

    // Split the document into per-level chunks at each "inflight" key;
    // everything before the first one (the header) carries no gated
    // metrics.
    std::vector<std::size_t> starts;
    std::size_t pos = 0;
    while ((pos = text.find("\"inflight\":", pos)) !=
           std::string::npos) {
        starts.push_back(pos);
        pos += 11;
    }
    if (starts.empty()) {
        std::cerr << "seer-bench-diff: no levels in " << path << "\n";
        return false;
    }
    for (std::size_t i = 0; i < starts.size(); ++i) {
        std::size_t begin = starts[i];
        std::size_t end =
            i + 1 < starts.size() ? starts[i + 1] : text.size();
        std::string chunk = text.substr(begin, end - begin);
        int inflight = std::atoi(chunk.c_str() + 11);
        LevelMetrics &metrics = out[inflight];

        // Walk "name": value pairs. Objects contribute their "mps"
        // field under "<name>.mps"; bare numbers keep their key.
        std::size_t at = 0;
        while ((at = chunk.find('"', at)) != std::string::npos) {
            std::size_t name_end = chunk.find('"', at + 1);
            if (name_end == std::string::npos)
                break;
            std::string name =
                chunk.substr(at + 1, name_end - at - 1);
            std::size_t after = name_end + 1;
            while (after < chunk.size() &&
                   (chunk[after] == ':' || chunk[after] == ' '))
                ++after;
            if (after >= chunk.size()) {
                break;
            } else if (chunk[after] == '{') {
                std::size_t m = chunk.find("\"mps\":", after);
                std::size_t close = chunk.find('}', after);
                if (m != std::string::npos &&
                    (close == std::string::npos || m < close)) {
                    metrics[name + ".mps"] =
                        std::atof(chunk.c_str() + m + 6);
                }
                at = close == std::string::npos ? chunk.size()
                                                : close + 1;
                continue;
            } else if (std::isdigit(
                           static_cast<unsigned char>(chunk[after])) ||
                       chunk[after] == '-') {
                if (name != "inflight")
                    metrics[name] = std::atof(chunk.c_str() + after);
            }
            at = name_end + 1;
        }
    }
    return true;
}

struct Verdict
{
    int inflight = 0;
    std::string metric;
    double base = 0.0;
    double fresh = 0.0;
    bool missing = false;   ///< base had it, fresh lost it
    bool regressed = false;
};

} // namespace

int
main(int argc, char **argv)
{
    double tolerance = 0.10;
    bool ratios_only = false;
    bool json = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tolerance") == 0 &&
            i + 1 < argc) {
            tolerance = std::atof(argv[++i]);
            if (tolerance <= 0.0 || tolerance >= 1.0) {
                std::fprintf(stderr,
                             "--tolerance wants a fraction in "
                             "(0, 1)\n");
                return 2;
            }
        } else if (std::strcmp(argv[i], "--ratios-only") == 0) {
            ratios_only = true;
        } else if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr,
                         "usage: %s BASE.json FRESH.json "
                         "[--tolerance F] [--ratios-only] [--json]\n",
                         argv[0]);
            return 2;
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.size() != 2) {
        std::fprintf(stderr,
                     "usage: %s BASE.json FRESH.json [--tolerance F] "
                     "[--ratios-only] [--json]\n",
                     argv[0]);
        return 2;
    }

    BenchMetrics base;
    BenchMetrics fresh;
    if (!parseBench(paths[0], base) || !parseBench(paths[1], fresh))
        return 2;

    std::vector<Verdict> verdicts;
    std::size_t fresh_only = 0;
    for (const auto &[inflight, base_metrics] : base) {
        auto fresh_level = fresh.find(inflight);
        for (const auto &[name, base_value] : base_metrics) {
            MetricClass cls = classify(name);
            if (cls == MetricClass::Ignore)
                continue;
            if (ratios_only && cls == MetricClass::Throughput)
                continue;
            Verdict verdict;
            verdict.inflight = inflight;
            verdict.metric = name;
            verdict.base = base_value;
            auto fresh_metric =
                fresh_level != fresh.end()
                    ? fresh_level->second.find(name)
                    : LevelMetrics::iterator{};
            if (fresh_level == fresh.end() ||
                fresh_metric == fresh_level->second.end()) {
                // The fresh sweep silently lost a measured path — the
                // exact failure a ledger exists to catch.
                verdict.missing = true;
                verdict.regressed = true;
            } else {
                verdict.fresh = fresh_metric->second;
                switch (cls) {
                case MetricClass::Throughput:
                case MetricClass::Ratio:
                    verdict.regressed =
                        verdict.fresh <
                        verdict.base * (1.0 - tolerance);
                    break;
                case MetricClass::Overhead:
                    verdict.regressed =
                        verdict.fresh > verdict.base + 0.10;
                    break;
                case MetricClass::TaggedFloor:
                    verdict.regressed =
                        verdict.fresh < verdict.base - 0.10;
                    break;
                case MetricClass::Ignore:
                    break;
                }
            }
            verdicts.push_back(verdict);
        }
    }
    for (const auto &[inflight, fresh_metrics] : fresh) {
        auto base_level = base.find(inflight);
        for (const auto &[name, value] : fresh_metrics) {
            if (classify(name) == MetricClass::Ignore)
                continue;
            if (base_level == base.end() ||
                base_level->second.find(name) ==
                    base_level->second.end())
                ++fresh_only;
        }
    }

    std::size_t regressions = 0;
    for (const Verdict &verdict : verdicts)
        if (verdict.regressed)
            ++regressions;

    if (json) {
        std::ostringstream out;
        out.setf(std::ios::fixed);
        out.precision(3);
        out << "{\"kind\": \"BENCH_DIFF\", \"base\": \"" << paths[0]
            << "\", \"fresh\": \"" << paths[1]
            << "\", \"tolerance\": " << tolerance
            << ", \"compared\": " << verdicts.size()
            << ", \"new_metrics\": " << fresh_only
            << ", \"regressions\": [";
        bool first = true;
        for (const Verdict &verdict : verdicts) {
            if (!verdict.regressed)
                continue;
            out << (first ? "" : ", ") << "{\"inflight\": "
                << verdict.inflight << ", \"metric\": \""
                << verdict.metric << "\", \"base\": " << verdict.base
                << ", \"fresh\": "
                << (verdict.missing ? -1.0 : verdict.fresh) << "}";
            first = false;
        }
        out << "]}\n";
        std::fputs(out.str().c_str(), stdout);
    } else {
        std::printf("bench diff: %s vs %s (%zu metrics, tolerance "
                    "%.0f%%%s)\n",
                    paths[0].c_str(), paths[1].c_str(),
                    verdicts.size(), 100.0 * tolerance,
                    ratios_only ? ", ratios only" : "");
        for (const Verdict &verdict : verdicts) {
            if (!verdict.regressed)
                continue;
            if (verdict.missing) {
                std::printf("  [%d in-flight] %s: base %.3f, MISSING "
                            "from fresh run\n",
                            verdict.inflight, verdict.metric.c_str(),
                            verdict.base);
            } else {
                double delta =
                    verdict.base != 0.0
                        ? 100.0 * (verdict.fresh / verdict.base - 1.0)
                        : 0.0;
                std::printf("  [%d in-flight] %s: base %.3f fresh "
                            "%.3f (%+.1f%%) REGRESSED\n",
                            verdict.inflight, verdict.metric.c_str(),
                            verdict.base, verdict.fresh, delta);
            }
        }
        if (fresh_only > 0)
            std::printf("  %zu new metric%s in the fresh run (not "
                        "gated)\n",
                        fresh_only, fresh_only == 1 ? "" : "s");
    }

    if (regressions > 0) {
        std::fprintf(stderr, "FAIL: %zu metric%s regressed\n",
                     regressions, regressions == 1 ? "" : "s");
        return 1;
    }
    if (!json)
        std::printf("ok: no regressions\n");
    return 0;
}
