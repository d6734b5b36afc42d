/**
 * @file
 * Fleet failure-and-recovery subsystem (ROADMAP: robustness).
 *
 * The paper's efficiency story is measured on healthy hardware; a
 * production fleet spends part of its life with servers crashed, hung,
 * or brown-powered. RecoveryManager closes that gap: it owns the
 * server-scope half of the fault model (FaultScope::Server plans),
 * watches every server for step progress, restarts failed ones with
 * exponential-backoff probes, restores their chips from periodically
 * captured ChipCheckpoints (plain in-memory values: capture copies each
 * chip's state into the stored value, reusing its vectors, and restore
 * copies it back), and walks a fleet-wide
 * graceful-degradation ladder when failures arrive in correlated
 * storms.
 *
 * It is also the fleet's one thread placer. A caller declares how many
 * worker threads it wants (setWorkload; FleetService sizes that from
 * its demand estimate) and the manager decides where they run: after
 * the rung-3 shed it clamps them to servable cores, splits them over
 * servers in proportion to core capacity (core::splitByWeight), and
 * lets each server's HealthAwarePlacer pick sockets. It re-places on
 * every setWorkload, failure, recovery, and ladder move, and rewrites
 * only the sockets whose thread count changed, so untouched chips keep
 * their phase-sampling state. With tracing on, a re-place that
 * re-assigns any server emits one PlacementDecision for the fleet.
 *
 * Its recovery.* telemetry series are recorded on the control thread,
 * like every other series (obs::telemetry::TelemetryHub).
 *
 * Failure model (docs/RELIABILITY.md has the full taxonomy):
 *
 *  - ServerCrash: power loss; volatile state gone. Needs a restart and
 *    either a checkpoint restore or a cold start.
 *  - ServerHang: wedged but powered; state retained. Clears by itself
 *    when the fault window ends, or earlier via a probe power-cycle
 *    (which *loses* state — the price of not waiting).
 *  - VrmShutdown: bulk-converter OCP trip; crash-equivalent outage.
 *  - SlowRestart: multiplies restart latency while active (cold VRM
 *    ramps, fsck storms).
 *
 * Detection is black-box on purpose: the watchdog only checks that a
 * server's sim clock advances (heartbeat), exactly what an out-of-band
 * BMC sees, so detection latency is modeled rather than assumed zero.
 *
 * Degradation ladder (failures inside `stormWindow`):
 *
 *    rung 0  healthy       commanded modes as configured
 *    rung 1  boost-freeze  AdaptiveOverclock sockets fall back to
 *                          AdaptiveUndervolt (keep the efficiency win,
 *                          drop the aggressive boost)
 *    rung 2  static        every socket to StaticGuardband (maximum
 *                          margin while the storm is diagnosed)
 *    rung 3  load-shed     static + `shedFraction` of threads dropped
 *
 * Escalation is immediate; de-escalation is hysteretic (one rung per
 * clean stormWindow) so a trickle of failures cannot make the fleet
 * flap between rungs.
 *
 * With `enabled = false` the manager still *applies* server-scope
 * faults (chips freeze, hangs self-clear) but never detects, probes,
 * checkpoints, migrates, or degrades — the "blind" arm of
 * bench/ext_fleet_recovery, and the control arm for the determinism
 * guarantee: with no failures scheduled, enabled and disabled runs are
 * bit-identical (tests/test_recovery.cc).
 */

#ifndef AGSIM_RECOVERY_RECOVERY_MANAGER_H
#define AGSIM_RECOVERY_RECOVERY_MANAGER_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"

#include "chip/chip_checkpoint.h"
#include "chip/core_load.h"
#include "core/placement.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "system/fleet_stepper.h"
#include "system/server.h"

namespace agsim::recovery {

/** Recovery tunables (fleet-wide). */
struct RecoveryPolicy
{
    /**
     * Master switch. Disabled = faults still strike (freeze / hang
     * self-clear) but nothing detects or repairs them.
     */
    bool enabled = true;
    /** No step progress for this long marks a server Failed. */
    Seconds heartbeatTimeout = Seconds{0.01};
    /** Delay before the first restart probe after detection. */
    Seconds probeInitialDelay = Seconds{0.02};
    /** Probe delay multiplier after each failed probe (>= 1). */
    double probeBackoff = 2.0;
    /** Failed probes tolerated before the server is Abandoned. */
    int probeBudget = 6;
    /** Cadence of per-server checkpoint captures. */
    Seconds checkpointInterval = Seconds{0.1};
    /**
     * Reboot time once a probe succeeds (multiplied by any active
     * SlowRestart fault's factor).
     */
    Seconds restartLatency = Seconds{0.03};
    /** Failures inside stormWindow that trip rung 1 (boost-freeze). */
    int stormFailureThreshold = 2;
    /** Failures that trip rung 2 (static-guardband cascade). */
    int cascadeFailureThreshold = 3;
    /** Failures that trip rung 3 (load shed). */
    int shedFailureThreshold = 5;
    /** Sliding window for counting correlated failures. */
    Seconds stormWindow = Seconds{0.5};
    /** Fraction of threads dropped at rung 3 (0..1). */
    double shedFraction = 0.25;

    /** Reject nonsensical values with a descriptive ConfigError. */
    void validate() const;
};

/** Lifecycle of one managed server. */
enum class ServerRecoveryState
{
    /** Stepping normally (possibly frozen by an undetected fault). */
    Online,
    /** Watchdog tripped; restart probes in flight. */
    Failed,
    /** A probe succeeded; reboot latency is being served. */
    Restoring,
    /** Probe budget exhausted; the server is written off. */
    Abandoned,
};

/**
 * Watches a fleet, repairs failed servers, keeps the workload placed on
 * surviving capacity. Servers and the FleetStepper are borrowed and
 * must outlive the manager; call tick(dt) once per fleet step, after
 * the stepper has advanced the chips.
 */
class RecoveryManager
{
  public:
    RecoveryManager(system::FleetStepper *stepper,
                    const RecoveryPolicy &policy = RecoveryPolicy());

    /**
     * Register a server (also registers its sockets with the stepper —
     * do not addServer the same server to the stepper yourself). The
     * optional plan is this server's *server-scope* fault schedule,
     * evaluated on fleet time. Returns the server's index.
     */
    size_t addServer(system::Server &server,
                     const fault::FaultPlan *plan = nullptr);

    /**
     * Declare the fleet workload: `threads` identical worker threads
     * running `load` (at most the fleet's total cores). Placement
     * happens immediately and is re-derived on every failure, recovery,
     * abandonment, and ladder move; threads that do not fit on
     * servable cores are not placed.
     */
    void setWorkload(size_t threads, const chip::CoreLoad &load);

    /**
     * Advance fleet time by dt and run the recovery pipeline: apply
     * server-scope faults, watchdog, probes, restores, checkpoint
     * capture, degradation ladder. Runs between fleet sweeps (no
     * worker threads are live), on the control thread that writes
     * every telemetry series.
     */
    AG_CONTROL_THREAD
    void tick(Seconds dt);

    /**
     * Attach the streaming telemetry plane (optional; may be null, must
     * outlive the manager). Declares the recovery.* series and makes
     * tick() the hub's heartbeat: recovery state is sampled on the hub
     * cadence and hub->tick(now) runs after every pipeline pass, so SLO
     * evaluation, stream lines, and flight-recorder closure all advance
     * on fleet time.
     */
    void setTelemetry(obs::telemetry::TelemetryHub *hub);

    const RecoveryPolicy &policy() const { return policy_; }
    size_t serverCount() const { return servers_.size(); }
    ServerRecoveryState state(size_t server) const;
    /** Whether a server is Online and stepping, i.e. may carry work. */
    bool servable(size_t server) const;
    /**
     * Threads the last placement put on each socket of a server (cores
     * 0..n-1 run the workload). Empty before the first placement and
     * while the server is out of service: its loads are unknown until
     * a placement rewrites every socket.
     */
    const std::vector<size_t> &placedPerSocket(size_t server) const;
    /** Servers currently Online and actually stepping (not frozen). */
    size_t onlineCount() const;
    /** Watchdog detections so far. */
    int64_t failures() const { return failures_; }
    /** Managed recoveries (restore / cold / warm) completed. */
    int64_t recoveries() const { return recoveries_; }
    /** Hang outages that cleared without intervention. */
    int64_t selfRecoveries() const { return selfRecoveries_; }
    /** Checkpoint captures so far (all sockets of one server = 1). */
    int64_t checkpoints() const { return checkpointsTaken_; }
    /** Mean outage duration over every ended outage (0 if none). */
    Seconds meanTimeToRecover() const;
    /** Current degradation rung (0 = healthy .. 3 = load shed). */
    int degradationRung() const { return rung_; }
    /** Threads currently placed (reflects rung-3 shedding). */
    size_t placedThreads() const { return placedThreads_; }
    /** Fleet time as advanced by tick(). */
    Seconds now() const { return now_; }

  private:
    struct ServerRecord
    {
        system::Server *server = nullptr;
        /** Server-scope injector on fleet time (null = no plan). */
        std::unique_ptr<fault::FaultInjector> injector;
        /** Fleet-stepper slot of each socket. */
        std::vector<size_t> slots;
        ServerRecoveryState state = ServerRecoveryState::Online;
        /** Sockets currently excluded from stepping. */
        bool frozen = false;
        /** Volatile state lost this outage (crash/VRM/power-cycle). */
        bool stateLost = false;
        /**
         * A probe power-cycled the server out of a still-active hang
         * window; don't re-freeze it until that window fully clears.
         */
        bool suppressFaultFreeze = false;
        Seconds lastProgressAt = Seconds{0.0};
        Seconds lastSimTime = Seconds{0.0};
        Seconds outageStart = Seconds{0.0};
        Seconds nextProbeAt = Seconds{0.0};
        Seconds probeDelay = Seconds{0.0};
        int probesUsed = 0;
        Seconds restoreDoneAt = Seconds{0.0};
        /** Last captured checkpoint per socket. */
        std::vector<chip::ChipCheckpoint> checkpoints;
        bool hasCheckpoint = false;
        Seconds lastCheckpointAt = Seconds{0.0};
        /** Commanded mode per socket at registration (ladder rung 0). */
        std::vector<chip::GuardbandMode> baselineMode;
        /** Threads assigned by the last placement. */
        size_t assignedThreads = 0;
        /** Threads per socket as last written; empty = unknown. */
        std::vector<size_t> placedPerSocket;
        /** Placer reused across placements (trust hysteresis). */
        core::HealthAwarePlacer placer;
    };

    /** Whether this record's sockets may carry work right now. */
    static bool servable(const ServerRecord &record);

    void applyServerFaults(Seconds dt);
    void runWatchdog();
    void runProbes();
    void completeRestores();
    void captureCheckpoints();
    void stepLadder();

    void freezeServer(ServerRecord &record);
    void unfreezeServer(ServerRecord &record);
    /** End an outage: bookkeeping + trace. `how`: restore/cold/warm/self. */
    void finishOutage(ServerRecord &record, size_t index, const char *how);
    /** Name of the server-scope fault currently striking (trace detail). */
    static const char *outageKind(const ServerRecord &record);

    /** Set every servable socket's mode for the current rung. */
    void applyLadderModes();
    /** Re-derive and apply the fleet placement onto servable servers. */
    void applyPlacement();

    /** Sample recovery.* series if the hub cadence is due. */
    AG_CONTROL_THREAD
    void sampleTelemetry();

    system::FleetStepper *stepper_ = nullptr;
    RecoveryPolicy policy_;
    std::vector<ServerRecord> servers_;
    Seconds now_ = Seconds{0.0};

    size_t workloadThreads_ = 0;
    chip::CoreLoad workloadLoad_;
    bool haveWorkload_ = false;
    size_t placedThreads_ = 0;

    int rung_ = 0;
    Seconds lastRungChangeAt_ = Seconds{0.0};
    /** Fleet times of recent watchdog detections (storm counting). */
    std::deque<Seconds> failureTimes_;

    int64_t failures_ = 0;
    int64_t recoveries_ = 0;
    int64_t selfRecoveries_ = 0;
    int64_t checkpointsTaken_ = 0;
    Seconds mttrSum_ = Seconds{0.0};
    int64_t mttrCount_ = 0;

    obs::Counter *obsFailures_ = nullptr;
    obs::Counter *obsDetections_ = nullptr;
    obs::Counter *obsProbes_ = nullptr;
    obs::Counter *obsProbeFailures_ = nullptr;
    obs::Counter *obsRestarts_ = nullptr;
    obs::Counter *obsRestores_ = nullptr;
    obs::Counter *obsSelfRecoveries_ = nullptr;
    obs::Counter *obsCheckpoints_ = nullptr;
    obs::Counter *obsMigrations_ = nullptr;
    obs::Counter *obsLadderTransitions_ = nullptr;
    obs::Gauge *obsShedThreads_ = nullptr;

    obs::telemetry::TelemetryHub *hub_ = nullptr;
    obs::telemetry::SeriesId tsOnline_ = 0;
    obs::telemetry::SeriesId tsRung_ = 0;
    obs::telemetry::SeriesId tsMttr_ = 0;
    obs::telemetry::SeriesId tsPlaced_ = 0;
    Seconds nextTelemetryAt_ = Seconds{0.0};
};

} // namespace agsim::recovery

#endif // AGSIM_RECOVERY_RECOVERY_MANAGER_H
