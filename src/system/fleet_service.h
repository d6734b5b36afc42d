/**
 * @file
 * FleetService: the persistent, continuously-running fleet executor
 * (docs/FLEET_SERVICE.md).
 *
 * Every earlier entry point is batch-shaped: build a fleet, run a fixed
 * duration, read the summary. A datacenter is a *service*: open-loop
 * traffic arrives whether or not capacity is ready, servers fail and
 * recover under load, and control decisions (placement, admission,
 * migration) happen inside the running loop. FleetService is that loop,
 * assembled from the existing pieces:
 *
 *  - execution: a FleetStepper (a StealPool when threads > 1) sweeps
 *    the chips in shard-granular tasks between deterministic
 *    virtual-time barriers — exact mode stays bit-identical for any
 *    thread count (tests/test_fleet_service.cc pins the digest);
 *  - traffic: a workload::ArrivalProcess (steady/diurnal/MMPP/flash
 *    crowd) drawn once per control quantum on the control thread,
 *    routed over the servable servers by largest-remainder split
 *    proportional to placed capacity;
 *  - queueing: one deterministic qos::ServerQueueModel per server,
 *    drained at the frequency-scaled service rate of that server's
 *    placed cores (a droop-throttled or demoted chip serves slower —
 *    the paper's co-runner -> QoS chain at fleet scale);
 *  - control: per-server core::HealthAwarePlacer apportionment, re-run
 *    when the offered-rate EWMA shifts by `rateShiftThreshold` or the
 *    servable set changes; admission control at each queue's maxDepth;
 *    drain-and-migrate requeues a failed server's backlog onto
 *    survivors;
 *  - reliability: a recovery::RecoveryManager runs its full pipeline
 *    (faults, watchdog, probes, restores, checkpoints, ladder) every
 *    quantum;
 *  - observability: service.* telemetry series recorded on the control
 *    thread each quantum; the hub heartbeat (SLO burn-rate evaluation,
 *    stream lines, flight recorder) rides the RecoveryManager tick.
 *
 * Quantum anatomy (one tick() call):
 *   1. stepper.run(ticksPerQuantum, dt)        [workers, barriered]
 *   2. arrivals.draw(now, quantum)             [control thread]
 *   3. drain-and-migrate dead servers' backlogs
 *   4. re-place if the rate shifted / capacity changed
 *   5. route + step every server queue
 *   6. record service.* telemetry
 *   7. recovery tick (ends with hub.tick: SLO + stream)
 *
 * Determinism: steps 2-7 run on the control thread in fixed server
 * order; step 1's execution order is irrelevant (chips are mutually
 * independent). Hence the whole service is a pure function of
 * (config, seeds) for every thread count, telemetry on or off.
 */

#ifndef AGSIM_SYSTEM_FLEET_SERVICE_H
#define AGSIM_SYSTEM_FLEET_SERVICE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_annotations.h"

#include "core/placement.h"
#include "fault/fault_plan.h"
#include "obs/metrics.h"
#include "obs/telemetry/telemetry_hub.h"
#include "qos/open_queue.h"
#include "recovery/recovery_manager.h"
#include "stats/quantile_sketch.h"
#include "system/fleet_stepper.h"
#include "system/server.h"
#include "workload/arrivals.h"

namespace agsim::system {

/** Continuous-service configuration. */
struct FleetServiceConfig
{
    /** Servers in the fleet (each server.socketCount chips). */
    size_t serverCount = 4;
    /** Per-server template; each server's chips get a derived seed. */
    ServerConfig server;
    /** Base seed; server i uses seed + golden-ratio stride * (i+1). */
    uint64_t seed = 0x5EEDFEEDu;

    /** Executor configuration (threads/shardSize/sampling/...). */
    FleetStepperConfig stepper;
    /** Chip simulation step. */
    Seconds tickDt = Seconds{1e-3};
    /** Chip ticks per control quantum (quantum = ticksPerQuantum*dt). */
    int64_t ticksPerQuantum = 10;
    /** Firmware warm-up simulated per server before service start. */
    Seconds settleDuration = Seconds{0.05};

    /** Open-loop traffic shape. */
    workload::ArrivalConfig arrivals;
    /** Per-server queue model. */
    qos::OpenQueueParams queue;

    /** Load run by each placed worker core. */
    chip::CoreLoad activeLoad =
        chip::CoreLoad::running(0.7, Volts{4e-3}, Volts{12e-3});
    /** Placement sizing: keep placed capacity at rate/target. */
    double targetUtilization = 0.7;
    /** Re-place when the demand estimate moves by this fraction. */
    double rateShiftThreshold = 0.2;
    /** EWMA smoothing for the offered-rate estimate (0..1]. */
    double rateEwmaAlpha = 0.3;
    /**
     * Backlog-aware sizing: placed capacity targets the arrival EWMA
     * plus enough surplus to drain the standing backlog within this
     * horizon, so a burst's queue is worked off instead of being
     * carried indefinitely by a fleet that scaled back down.
     */
    Seconds backlogDrainHorizon = Seconds{0.1};
    /** Per-server placement tunables (trust hysteresis etc.). */
    core::HealthAwareParams placement;

    /** Failure-and-recovery policy. */
    recovery::RecoveryPolicy recovery;

    /** Reject nonsensical values with a descriptive ConfigError. */
    void validate() const;
};

/** Rolling service counters (all lifetime totals). */
struct FleetServiceStats
{
    uint64_t arrived = 0;
    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t completed = 0;
    /** Queries requeued off failed servers (drain-and-migrate). */
    uint64_t migratedQueries = 0;
    /** Placement decisions taken (fleet-wide re-place passes). */
    int64_t placements = 0;
    /** Threads moved between sockets by those decisions. */
    int64_t threadMigrations = 0;
    /** Control quanta executed. */
    int64_t quanta = 0;
};

/**
 * The running service. Owns its servers, executor, queues, and
 * recovery plane; borrows an optional TelemetryHub. Single control
 * thread: construct, configure, start(), then tick()/runFor().
 */
class FleetService
{
  public:
    explicit FleetService(const FleetServiceConfig &config =
                              FleetServiceConfig());

    /**
     * Attach the telemetry plane (before start(); may be null). The
     * hub must outlive the service.
     */
    void setTelemetry(obs::telemetry::TelemetryHub *hub);

    /**
     * Schedule a server-scope fault plan for one server (before
     * start()). Plans are evaluated on fleet time by the recovery
     * manager.
     */
    void setFaultPlan(size_t server, const fault::FaultPlan &plan);

    /**
     * Register the default service SLO rules on the attached hub
     * (before start(); needs a hub): sustained latency above
     * `latencyCeiling` and any sustained load shedding both burn
     * error budget.
     */
    void installDefaultSlos(Seconds latencyCeiling = Seconds{0.050});

    /**
     * Bring the service up: settle firmware, register the fleet with
     * the executor and recovery plane, declare telemetry series, take
     * the initial placement. Idempotent.
     */
    AG_CONTROL_THREAD
    void start();

    /** One control quantum (see file doc for the anatomy). */
    AG_CONTROL_THREAD
    void tick();

    /** Run whole quanta until at least `duration` of sim time passes. */
    AG_CONTROL_THREAD
    void runFor(Seconds duration);

    const FleetServiceConfig &config() const { return config_; }
    const FleetServiceStats &stats() const { return stats_; }

    /** Sim time of the service clock (quantum-aligned). */
    Seconds now() const { return now_; }

    /** One quantum's span of sim time. */
    Seconds quantum() const
    {
        return config_.tickDt * double(config_.ticksPerQuantum);
    }

    /** Current smoothed offered rate (queries/sec). */
    double offeredRatePerSec() const { return rateEwma_; }

    /** Total backlog across every server queue. */
    uint64_t queueDepth() const;

    /** Completed-query latency quantile estimate (seconds). */
    Seconds latencyQuantile(double q) const;

    /** Fraction of offered queries completed so far (1 if none). */
    double sustainedFraction() const;

    /** Worker threads currently placed fleet-wide. */
    size_t placedThreads() const { return placedThreads_; }

    size_t serverCount() const { return servers_.size(); }
    Server &server(size_t index) { return *servers_[index]; }

    FleetStepper &stepper() { return stepper_; }
    recovery::RecoveryManager &manager() { return *manager_; }

    /**
     * FNV-1a digest over the full service state (per-chip electrical
     * state bits, queue depths, counters). Bit-identical runs produce
     * equal digests — the threads=1 vs threads=N determinism oracle.
     */
    uint64_t stateDigest() const;

  private:
    /** Whether this server may carry traffic right now. */
    bool servable(size_t index) const;

    /** Sum of frequencyScale over a server's placed cores. */
    double capacityScale(size_t index) const;

    /** Offered-rate EWMA plus the backlog drain surplus (queries/s). */
    double demandEstimate() const;

    /** Re-derive and apply the fleet-wide placement for `demand`. */
    void replace(double demand);

    /** Largest-remainder split of `count` over per-server weights. */
    static std::vector<uint64_t>
    splitByWeight(uint64_t count, const std::vector<double> &weights);

    /** Record the quantum's service.* telemetry samples. */
    AG_CONTROL_THREAD
    void sampleTelemetry(uint64_t arrived, uint64_t admitted,
                         uint64_t shed, uint64_t completed,
                         Seconds meanLatency);

    FleetServiceConfig config_;
    std::vector<std::unique_ptr<Server>> servers_;
    std::vector<std::optional<fault::FaultPlan>> faultPlans_;
    FleetStepper stepper_;
    std::unique_ptr<recovery::RecoveryManager> manager_;
    workload::ArrivalProcess arrivals_;
    std::vector<qos::ServerQueueModel> queues_;
    /** One placer per server (trust hysteresis is per-server state). */
    std::vector<core::HealthAwarePlacer> placers_;
    /** Threads placed per socket, server-major. */
    std::vector<std::vector<size_t>> placedPerSocket_;
    /** Last quantum's servable verdict per server (edge detection). */
    std::vector<char> wasServable_;

    bool started_ = false;
    Seconds now_ = Seconds{0.0};
    double rateEwma_ = 0.0;
    double lastPlacedDemand_ = 0.0;
    size_t placedThreads_ = 0;
    FleetServiceStats stats_;
    stats::QuantileSketch latency_;

    obs::Counter *obsQuanta_ = nullptr;
    obs::Counter *obsShed_ = nullptr;
    obs::Counter *obsCompleted_ = nullptr;
    obs::Counter *obsMigratedQueries_ = nullptr;

    obs::telemetry::TelemetryHub *hub_ = nullptr;
    bool telemetryOn_ = false;
    obs::telemetry::SeriesId tsRate_ = 0;
    obs::telemetry::SeriesId tsDepth_ = 0;
    obs::telemetry::SeriesId tsLatency_ = 0;
    obs::telemetry::SeriesId tsShedRate_ = 0;
    obs::telemetry::SeriesId tsThroughput_ = 0;
    obs::telemetry::SeriesId tsPlaced_ = 0;
};

} // namespace agsim::system

#endif // AGSIM_SYSTEM_FLEET_SERVICE_H
