/**
 * @file
 * Fleet-scale chip stepping: SoA shard sweeps plus phase-sampled
 * fast-forward (the hot path behind the ROADMAP's production-scale
 * fleet item; layout and exactness bounds in docs/PERFORMANCE.md).
 *
 * Chips are mutually independent (each uses only its own VRM rail), so
 * a fleet of N chips stepping T ticks is N×T independent unit steps
 * that may run in any order. FleetStepper exploits that freedom twice:
 *
 *  - *Shard stepping (exact)*: chips are migrated into one shared
 *    ChipStateSoA arena (Chip::migrateState) and swept in shards with
 *    temporal blocking — each chip advances `tickBlock` ticks before
 *    the sweep moves on, so its hot lanes stay resident in L1 instead
 *    of being evicted N-1 times per tick. Bit-identical to stepping
 *    every chip serially: same model code, same per-chip RNG streams.
 *    With threads > 1, each tick block is one StealPool sweep with one
 *    task per shard; with threads <= 1 the same per-shard body runs
 *    inline on the caller.
 *
 *  - *Sampled stepping*: a per-chip steady-state detector watches a
 *    window of exact steps (margin variance/drift, frequency spread,
 *    setpoint, emergencies, droop responses, the chip's state epoch,
 *    fault-plan edges); once the window is quiescent the chip is
 *    advanced analytically with Chip::fastForward in spans of up to
 *    maxFastForwardTicks, dropping back to exact stepping on any
 *    transient. Deterministic (same seed → same run) but not
 *    bit-identical to the exact path; the divergence bound is
 *    documented in docs/PERFORMANCE.md and enforced by
 *    tests/test_fleet_stepper.cc.
 */

#ifndef AGSIM_SYSTEM_FLEET_STEPPER_H
#define AGSIM_SYSTEM_FLEET_STEPPER_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"

#include "chip/chip.h"
#include "obs/metrics.h"
#include "obs/telemetry/telemetry_hub.h"
#include "system/server.h"
#include "system/steal_pool.h"

namespace agsim::system {

/** Steady-state detector tunables (per chip). */
struct PhaseDetectorParams
{
    /** Exact ticks observed before fast-forward can arm. */
    size_t window = 32;
    /**
     * Max stddev of the worst-margin samples across the window. The
     * default accommodates the ~2-3 mV per-tick ripple jitter of the
     * default di/dt model; see docs/PERFORMANCE.md before tightening.
     */
    Volts marginStddev = Volts{6e-3};
    /** Max |mean(second half) - mean(first half)| margin drift. */
    Volts marginDrift = Volts{2e-3};
    /** Max relative spread of the mean active frequency. */
    double freqSpread = 5e-3;
    /** Longest span one fastForward call may consume. */
    int64_t maxFastForwardTicks = 512;
};

/** Fleet sweep configuration. */
struct FleetStepperConfig
{
    /** Chips per shard (progress-reporting / timer granularity). */
    size_t shardSize = 64;
    /**
     * StealPool workers sweeping shard tasks (capped at the shard
     * count); 0 = hardware concurrency, 1 = inline on the caller.
     * Chips are independent, so any thread count is bit-identical to
     * serial.
     */
    size_t threads = 1;
    /**
     * Temporal blocking depth: ticks each chip advances before the
     * sweep moves to the next chip. Larger blocks keep a chip's hot
     * state cache-resident longer; chips drift at most tickBlock ticks
     * apart in sim time mid-run (they re-align at every run() exit).
     */
    int64_t tickBlock = 64;
    /** Enable phase-sampled fast-forward (approximate; see file doc). */
    bool sampling = false;
    /**
     * Has no effect: every threads > 1 run is a work-stealing sweep.
     * Kept only because agbench/ still assigns it; delete it together
     * with those assignments.
     */
    bool stealing = false;
    PhaseDetectorParams detector;
    /**
     * Migrate all chips into one shared SoA arena on the first run.
     * Requires a uniform core count across the fleet; skipped (with no
     * behaviour change) otherwise.
     */
    bool adoptSoA = true;
};

/**
 * Steps a fleet of chips. Chips are borrowed, never owned; every chip
 * (and the Server/VRM behind it) must outlive the stepper.
 */
class FleetStepper
{
  public:
    explicit FleetStepper(const FleetStepperConfig &config =
                              FleetStepperConfig());

    /**
     * Register one chip. Must happen before the first run()/step().
     * Returns the chip's fleet slot index (for setChipActive).
     */
    size_t addChip(chip::Chip *c);

    /**
     * Register every socket of a server. Returns the slot index of
     * each socket, in socket order.
     */
    std::vector<size_t> addServer(Server &server);

    size_t chipCount() const { return slots_.size(); }

    /**
     * Mark a chip active (stepped) or inactive (skipped entirely —
     * a crashed/hung server's sockets make no progress and their sim
     * clocks freeze). Reactivating disarms the slot's phase detector
     * and resyncs its epoch/setpoint references, so sampled mode never
     * fast-forwards across a failure edge on stale quiescence evidence.
     */
    void setChipActive(size_t index, bool active);

    /** Whether the chip at `index` is currently being stepped. */
    bool chipActive(size_t index) const;

    /**
     * Advance every chip by `ticks` steps of dt — the fleet-bench entry
     * point (temporal blocking; sampling when configured). Each tick
     * block is one barrier sweep on the stepper's pool, so from the
     * caller's view this is control-thread code; a task touches only
     * its own shard's slots (no locks needed or taken).
     */
    AG_CONTROL_THREAD
    void run(int64_t ticks, Seconds dt);

    /**
     * One tick-synchronous sweep: each phase runs across every chip
     * before the next phase starts, so all chips share one consistent
     * sim time at every call boundary (what a per-tick scheduler
     * loop needs). Always exact.
     */
    void step(Seconds dt);

    /**
     * Attach the streaming telemetry plane (optional; may be null).
     * Must happen before the first run()/step(): freeze() declares the
     * fleet series with one single-writer lane per chip shard, and each
     * sweep task is one shard, so each lane has exactly one writer
     * thread per tick block. The hub must outlive the stepper.
     * A disabled hub leaves the sweep bit-identical and branch-cheap.
     */
    void setTelemetry(obs::telemetry::TelemetryHub *hub);

    /** Exact chip-steps executed so far. */
    int64_t exactSteps() const { return exactSteps_; }

    /** Ticks consumed by fast-forward spans so far. */
    int64_t fastForwardedTicks() const { return fastForwardedTicks_; }

    /** Shard tasks stolen so far (0 when stepping inline). */
    int64_t stealCount() const
    {
        return pool_ != nullptr ? pool_->steals() : 0;
    }

    const FleetStepperConfig &config() const { return config_; }

  private:
    /** Per-chip detector state. */
    struct Slot
    {
        chip::Chip *chip = nullptr;
        /** Ring of worst-margin samples (volts). */
        std::vector<double> margin;
        /** Ring of mean-active-frequency samples (hertz). */
        std::vector<double> freq;
        size_t head = 0;
        size_t filled = 0;
        uint64_t epoch = 0;
        double setpoint = 0.0;
        bool armed = false;
        /** Inactive chips (failed servers) are skipped by every sweep. */
        bool active = true;
        /**
         * Ticks fast-forwarded since the last exact step. run() hands
         * each chip at most tickBlock ticks at a time, so one logical
         * fast-forward span crosses many blocks; this counter enforces
         * the maxFastForwardTicks re-anchor cadence across them.
         */
        int64_t forwardedSinceExact = 0;
        /** Next telemetry sample time for this chip (downsampling). */
        Seconds nextSampleAt = Seconds{0.0};
    };

    /**
     * Adopt all chips into one SoA arena and build the worker pool
     * (first run/step).
     */
    void freeze();

    /** Advance one chip by `ticks` (detector + fast-forward inside). */
    void stepChipBlock(Slot &slot, int64_t ticks, Seconds dt,
                       int64_t &exact, int64_t &forwarded);

    /** Record one exact step's signals; arm when quiescent. */
    void observe(Slot &slot);

    /**
     * Whether the chip's last exact step showed any transient (control
     * change, emergency, droop response, setpoint motion, active
     * fault). Updates the slot's epoch/setpoint references.
     */
    bool transientSeen(Slot &slot) const;

    /** Reset a slot's window (transient seen). */
    static void disarm(Slot &slot);

    /** Ticks fastForward may consume for this chip right now. */
    int64_t forwardBudget(const Slot &slot, Seconds dt) const;

    /**
     * Record this chip's signals if its sample cadence is due. Runs on
     * the worker that owns the slot's shard — the one writer of that
     * shard's telemetry lanes (hub_->record's AG_SINGLE_WRITER).
     */
    void sampleSlot(Slot &slot);

    FleetStepperConfig config_;
    std::vector<Slot> slots_;
    std::shared_ptr<chip::ChipStateSoA> arena_;
    bool frozen_ = false;
    /** Persistent worker pool; null when stepping inline. */
    std::unique_ptr<StealPool> pool_;

    int64_t exactSteps_ = 0;
    int64_t fastForwardedTicks_ = 0;

    obs::Counter *obsChipsStepped_ = nullptr;
    obs::Counter *obsFastForwarded_ = nullptr;
    obs::TimerStat obsSweepTimer_;

    obs::telemetry::TelemetryHub *hub_ = nullptr;
    /** Cached at freeze(): hub attached and enabled. */
    bool telemetryOn_ = false;
    obs::telemetry::SeriesId tsMargin_ = 0;
    obs::telemetry::SeriesId tsFreq_ = 0;
    obs::telemetry::SeriesId tsPower_ = 0;
};

} // namespace agsim::system

#endif // AGSIM_SYSTEM_FLEET_STEPPER_H
