/**
 * @file
 * Fault injection at the paper's six execution points (Table 4).
 *
 * An enabled point triggers with a configurable probability (the paper
 * uses 25%) the first time an execution crosses it; the triggered
 * problem is drawn uniformly from the paper's three types.
 */

#ifndef CLOUDSEER_SIM_FAULT_INJECTOR_HPP
#define CLOUDSEER_SIM_FAULT_INJECTOR_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time_util.hpp"
#include "logging/log_record.hpp"

namespace cloudseer::sim {

/** Injection points from the paper's Table 4. */
enum class InjectionPoint
{
    None,
    AmqpSender,
    AmqpReceiver,
    ImageCreate,
    ImageDelete,
    WsgiClient,
    WsgiServer,
};

/** Injection points excluding None, Table 4 order. */
extern const std::array<InjectionPoint, 6> kAllInjectionPoints;

/** Canonical name ("AMQP-Sender", ...). */
const char *injectionPointName(InjectionPoint point);

/** Problem types triggered at an injection point (paper §5.3). */
enum class ProblemType
{
    None,
    Delay,   ///< significant execution delay (performance problem)
    Abort,   ///< unexpected exception aborts the execution
    Silent,  ///< ignored request / wrong I/O status; no error message
};

/** Canonical name ("Delay", ...). */
const char *problemTypeName(ProblemType type);

/** Ground-truth record of one triggered problem. */
struct InjectionRecord
{
    logging::ExecutionId execution = 0;
    InjectionPoint point = InjectionPoint::None;
    ProblemType type = ProblemType::None;
    common::SimTime time = 0.0;
    bool emittedError = false;  ///< an ERROR log message accompanied it
};

/** Configuration and state of the injector for one simulation run. */
class FaultInjector
{
  public:
    /**
     * @param enabled_point Point to enable (None disables injection).
     * @param trigger_probability Chance per crossing (paper: 0.25).
     * @param error_message_probability Chance an Abort logs an ERROR.
     * @param seed Deterministic seed for the injector's own stream.
     * @param max_problems Stop triggering after this many problems
     *        (the paper runs tasks "until each injection point
     *        triggers 10 execution problems").
     */
    FaultInjector(InjectionPoint enabled_point, double trigger_probability,
                  double error_message_probability, std::uint64_t seed,
                  std::size_t max_problems = SIZE_MAX);

    /** Disabled injector (correct-execution experiments). */
    FaultInjector();

    /**
     * Called by the flow engine when execution `exec` crosses `point`.
     * At most one problem triggers per execution.
     *
     * @return The problem to apply (None = proceed normally).
     */
    ProblemType evaluate(InjectionPoint point, logging::ExecutionId exec,
                         common::SimTime now);

    /** Whether an Abort at this trigger should emit an ERROR message. */
    bool rollErrorMessage();

    /** Record that the error message was actually emitted. */
    void markErrorEmitted(logging::ExecutionId exec);

    /** Ground truth of everything triggered so far. */
    const std::vector<InjectionRecord> &records() const { return history; }

  private:
    InjectionPoint point = InjectionPoint::None;
    double triggerProbability = 0.0;
    double errorMessageProbability = 0.0;
    std::size_t maxProblems = SIZE_MAX;
    common::Rng rng;
    std::vector<InjectionRecord> history;
    std::vector<logging::ExecutionId> affected;

    bool alreadyAffected(logging::ExecutionId exec) const;
};

} // namespace cloudseer::sim

#endif // CLOUDSEER_SIM_FAULT_INJECTOR_HPP
