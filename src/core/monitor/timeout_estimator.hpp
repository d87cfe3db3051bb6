/**
 * @file
 * Per-task timeout estimation from correct executions.
 *
 * The paper fixes one global 10 s timeout and explicitly leaves
 * "determining such values" as future work (§4). This estimator
 * closes that gap: during modeling, it observes the inter-message
 * gaps of every correct run and recommends a per-task timeout of
 * (max observed gap) x safety-factor — tight for chatty tasks like
 * stop, generous for long-running ones like boot, which improves
 * detection latency without raising false positives.
 */

#ifndef CLOUDSEER_CORE_MONITOR_TIMEOUT_ESTIMATOR_HPP
#define CLOUDSEER_CORE_MONITOR_TIMEOUT_ESTIMATOR_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/stats.hpp"
#include "common/time_util.hpp"

namespace cloudseer::core {

/** Per-task timeout table with a fallback default. */
struct TimeoutPolicy
{
    double defaultTimeout = 10.0;
    std::map<std::string, double> perTask;

    /**
     * Resolution tallies (seer-scope, DESIGN.md §11): how often the
     * policy was consulted and how often no per-task entry applied —
     * a high fallback share means the estimator never saw the tasks
     * actually in flight. Mutable: resolution is semantically const.
     */
    mutable std::uint64_t resolutions = 0;
    mutable std::uint64_t defaultFallbacks = 0;

    /** Timeout for one task (default when unknown). */
    double timeoutFor(const std::string &task) const;

    /** Serialise the table and tallies (seer-vault, DESIGN.md §13). */
    void saveState(common::BinWriter &out) const;

    /** Replace this policy with a saved one. */
    bool restoreState(common::BinReader &in);

    /**
     * Timeout for a group still tracking several candidate tasks:
     * the most generous candidate wins (never report early just
     * because a short task is also still possible). Counts one
     * resolution (and a fallback when no candidate had an entry).
     */
    double
    timeoutForCandidates(const std::vector<std::string> &tasks) const;
};

/** Learns gap statistics per task from correct executions. */
class TimeoutEstimator
{
  public:
    /**
     * Observe one correct run: message timestamps in arrival order
     * (at least one). Gaps below zero (skewed arrival) count as zero.
     */
    void observeRun(const std::string &task,
                    const std::vector<common::SimTime> &timestamps);

    /** Number of runs observed for a task. */
    std::size_t runsObserved(const std::string &task) const;

    /** Largest gap observed for a task (0 when unseen). */
    double maxGap(const std::string &task) const;

    /**
     * Recommend a policy.
     *
     * @param safety_factor Multiplier over the largest observed gap.
     * @param floor         Minimum timeout, seconds.
     * @param default_timeout Fallback for unobserved tasks.
     */
    TimeoutPolicy estimate(double safety_factor = 3.0,
                           double floor = 2.0,
                           double default_timeout = 10.0) const;

    /** Serialise every task's gap samples (seer-vault). */
    void saveState(common::BinWriter &out) const;

    /** Replace this estimator with a saved one. */
    bool restoreState(common::BinReader &in);

  private:
    struct TaskGaps
    {
        common::SampleStats gaps;
        std::size_t runs = 0;
    };
    std::map<std::string, TaskGaps> perTask;
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_MONITOR_TIMEOUT_ESTIMATOR_HPP
