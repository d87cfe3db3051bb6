/**
 * @file
 * seer-scope metric primitives (DESIGN.md §11).
 *
 * A MetricsRegistry owns named counters, gauges, and log-linear
 * histograms and renders them as Prometheus text exposition. The
 * primitives are deliberately minimal: a counter is one
 * uint64, a gauge one double, and a histogram a fixed array of buckets
 * sized at construction — recording on the hot path is an array
 * increment with zero allocation. Monotonic checker/ingest tallies are
 * *sampled* into registry counters at exposition time rather than
 * incremented per message, so an uninstrumented monitor pays nothing.
 *
 * Histogram buckets are log-linear: each power-of-ten decade in
 * [10^min_exp, 10^max_exp) is split into nine linear sub-buckets with
 * boundaries m·10^e for m in 1..9 — constant relative error (~11%)
 * over the full range with a small fixed bucket count, the same
 * trade-off HdrHistogram makes. Values outside the range land in
 * dedicated underflow/overflow tallies instead of silently clamping.
 */

#ifndef CLOUDSEER_OBS_METRICS_HPP
#define CLOUDSEER_OBS_METRICS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.hpp"

namespace cloudseer::obs {

/** Monotonic counter, sampled from an upstream tally. */
class Counter
{
  public:
    /** Sample from an upstream monotonic source (never decreases). */
    void
    set(std::uint64_t value)
    {
        if (value > total)
            total = value;
    }

    std::uint64_t value() const { return total; }

  private:
    std::uint64_t total = 0;
};

/** Point-in-time value. */
class Gauge
{
  public:
    void set(double value) { current = value; }
    double value() const { return current; }

  private:
    double current = 0.0;
};

/** Fixed-size log-linear histogram (no allocation after construction). */
class Histogram
{
  public:
    /**
     * Buckets cover [10^min_exp, 10^max_exp) with nine linear
     * sub-buckets per decade; values outside are tallied as
     * underflow/overflow (still contributing to count/sum/min/max).
     */
    Histogram(int min_exp, int max_exp);

    /** Record one sample. O(log buckets), allocation-free. */
    void record(double value);

    std::uint64_t count() const { return samples; }
    double sum() const { return total; }
    double minSeen() const { return samples == 0 ? 0.0 : minValue; }
    double maxSeen() const { return samples == 0 ? 0.0 : maxValue; }
    double mean() const;

    /**
     * Percentile estimate by nearest rank over buckets: the answer is
     * the upper bound of the bucket holding the rank (clamped to the
     * exact min/max), so the estimate never under-reports a latency.
     */
    double percentile(double p) const;

    // Bucket introspection (exposition and tests).
    std::size_t buckets() const { return hits.size(); }
    double bucketLower(std::size_t i) const { return bounds[i]; }
    double bucketUpper(std::size_t i) const { return bounds[i + 1]; }
    std::uint64_t bucketHits(std::size_t i) const { return hits[i]; }
    std::uint64_t underflow() const { return underflowCount; }
    std::uint64_t overflow() const { return overflowCount; }

    /**
     * Serialise the tallies (seer-vault, DESIGN.md §13). Bucket
     * boundaries are construction parameters, not state: restore
     * requires a histogram built with the same exponent range and
     * fails on a bucket-count mismatch.
     */
    void saveState(common::BinWriter &out) const;

    /** Replace this histogram's tallies with saved ones. */
    bool restoreState(common::BinReader &in);

  private:
    std::vector<double> bounds;       // buckets()+1 boundaries
    std::vector<std::uint64_t> hits;  // per-bucket tallies
    std::uint64_t underflowCount = 0;
    std::uint64_t overflowCount = 0;
    std::uint64_t samples = 0;
    double total = 0.0;
    double minValue = 0.0;
    double maxValue = 0.0;
};

/**
 * Named metric registry with Prometheus-text exposition.
 * References returned by counter()/gauge()/histogram() stay valid for
 * the registry's lifetime (node-based storage); looking a name up
 * twice yields the same instrument.
 */
class MetricsRegistry
{
  public:
    Counter &counter(const std::string &name, const std::string &help);
    Gauge &gauge(const std::string &name, const std::string &help);
    Histogram &histogram(const std::string &name,
                         const std::string &help, int min_exp,
                         int max_exp);

    /**
     * A gauge carrying constant labels (seer_build_info-style info
     * metrics). Label values are escaped per the exposition spec at
     * registration; the same (name, labels) pair always yields the
     * same instrument.
     */
    Gauge &labeledGauge(
        const std::string &name,
        const std::vector<std::pair<std::string, std::string>> &labels,
        const std::string &help);

    /** Prometheus text exposition format (sorted by metric name). */
    std::string prometheusText() const;

    std::size_t size() const;

  private:
    template <typename T> struct Named
    {
        T metric;
        std::string help;
    };

    std::map<std::string, Named<Counter>> counters;
    std::map<std::string, Named<Gauge>> gauges;
    std::map<std::string, Named<Histogram>> histograms;
};

} // namespace cloudseer::obs

#endif // CLOUDSEER_OBS_METRICS_HPP
