/**
 * @file
 * The simulated OpenStack deployment: executes task workflows over a
 * discrete-event queue, emits log records, applies fault injection, and
 * keeps exact ground truth for evaluation.
 */

#ifndef CLOUDSEER_SIM_SIMULATION_HPP
#define CLOUDSEER_SIM_SIMULATION_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "logging/log_record.hpp"
#include "sim/cluster.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_injector.hpp"
#include "sim/flows.hpp"
#include "sim/ground_truth.hpp"
#include "sim/task_type.hpp"

namespace cloudseer::sim {

/** A cloud user as seen in logs: user/tenant UUIDs plus a client IP. */
struct UserProfile
{
    std::string userId;
    std::string tenantId;
    std::string clientIp;
};

/** A VM's identity; the compute placement is fixed at first boot. */
struct VmHandle
{
    std::string instanceId;
    std::string imageId;
    std::string computeNode;
    std::string computeIp;
};

/** Tunables of the simulated deployment. */
struct SimConfig
{
    /**
     * Multiplies every step latency. The default is calibrated so a
     * boot spans ~8 s and action tasks ~2-3 s — matching the paper's
     * test bed, where tasks filled most of the 15 s inter-task wait
     * (its Table 5 reports 48-80% of sequences interleaved).
     */
    double latencyScale = 2.5;

    /** Emit periodic background messages (audits, host status). */
    bool enableNoise = true;

    /** Period of background noise per source, seconds. */
    double noisePeriod = 10.0;

    /** Injected delay bounds, seconds (beyond the 10 s timeout). */
    double delayMin = 15.0;
    double delayMax = 30.0;
};

/**
 * One simulated deployment run. Typical use: construct, create users
 * and VMs, submit tasks at chosen times, run(), then take the records
 * and ground truth.
 */
class Simulation
{
  public:
    /** Invoked synchronously on every emitted record (live tailing). */
    using EmissionCallback =
        std::function<void(const logging::LogRecord &)>;

    /** @param seed Master seed; everything derives from it. */
    Simulation(const SimConfig &config, std::uint64_t seed);

    /** Enable fault injection for this run (default: disabled). */
    void setInjector(FaultInjector injector);

    /**
     * Register a live tail: the callback fires at each emission, in
     * simulated-time order, while the run progresses — what a log
     * shipper tailing the files sees. Records still accumulate in
     * records() regardless.
     */
    void setEmissionCallback(EmissionCallback callback);

    /** Create a user with fresh identifiers. */
    UserProfile makeUser();

    /** The single shared profile for the paper's single-UID groups. */
    const UserProfile &sharedUser();

    /** Create a VM identity (placement decided at boot). */
    VmHandle makeVm();

    /**
     * Submit a task for execution at simulated time `when`.
     *
     * @return The ground-truth execution id.
     */
    logging::ExecutionId submit(TaskType type, common::SimTime when,
                                const UserProfile &user, VmHandle &vm);

    /** Run the event queue to completion. */
    void run();

    /** Records in emission (timestamp) order; the ledger keeps a copy. */
    const std::vector<logging::LogRecord> &records() const
    {
        return emitted;
    }

    /** Exact ground truth of this run. */
    const GroundTruth &truth() const { return groundTruth; }

    /** The injector (valid after setInjector; default disabled). */
    const FaultInjector &injector() const { return faultInjector; }

    /** Deployment topology. */
    const Cluster &cluster() const { return topology; }

    /** Underlying event queue (tests drive partial runs through it). */
    EventQueue &queue() { return events; }

  private:
    /** Mutable per-execution workflow state. */
    struct FlowRun
    {
        const FlowSpec *spec = nullptr;
        TaskContext ctx;
        logging::ExecutionId exec = 0;
        std::vector<int> remainingDeps;
        std::vector<std::vector<int>> dependents;
        std::vector<char> fired;
        bool cancelled = false;
        std::size_t keyEmitted = 0;
        std::size_t keyTotal = 0;
    };

    SimConfig config;
    common::Rng rng;
    Cluster topology;
    EventQueue events;
    GroundTruth groundTruth;
    FaultInjector faultInjector;
    EmissionCallback onEmission;
    std::vector<logging::LogRecord> emitted;
    std::vector<std::unique_ptr<FlowRun>> runs;
    std::unique_ptr<UserProfile> sharedProfile;
    logging::RecordId nextRecordId = 1;
    std::uint64_t pendingWork = 0;
    bool noiseScheduled = false;
    std::size_t noiseRotation = 0;

    void startFlow(FlowRun &run);
    void scheduleStep(FlowRun &run, int index);
    void fireStep(FlowRun &run, int index);
    void completeStep(FlowRun &run, int index);
    void emitRecord(const FlowRun &run, const FlowStep &step,
                    logging::LogLevel level, std::string body);
    void emitNoise();
    const std::string &nodeNameFor(const FlowRun &run,
                                   NodeRole role) const;
};

} // namespace cloudseer::sim

#endif // CLOUDSEER_SIM_SIMULATION_HPP
