/**
 * @file
 * The POWER7+-class chip model: eight cores on a shared Vdd PDN with
 * CPM sensors, per-core DPLLs, and the firmware guardband controller.
 *
 * Chip is the integration point of every substrate: each step() it
 *  1. solves the voltage/power fixed point (power depends on voltage,
 *     voltage sags with current, current is power/voltage),
 *  2. draws the step's di/dt noise,
 *  3. reads the CPM banks at the resulting on-chip voltages,
 *  4. advances the per-core DPLLs,
 *  5. runs the 32 ms undervolting firmware when due, and
 *  6. feeds the AMESTER-like telemetry.
 *
 * The chip does not know about workloads or schedulers — the system layer
 * assigns CoreLoads before each step.
 *
 * State: all of the chip's mutable model state (mode and DVFS target,
 * loads, solver vectors, temperature, DPLLs, the di/dt stream, the
 * safety monitor, the telemetry window in progress, bookkeeping) lives
 * in one ChipState the chip owns by value (chip/chip_state.h). The
 * components above keep only their parameters and exact-keyed memos
 * and step the parts of the state the chip passes them; the config
 * does not change after construction. What the chip holds beside the
 * state is volatile or derived: the state epoch, completed telemetry
 * windows, the droop histogram, obs handles, per-step scratch and the
 * sense phase's pending outputs (chip_state.h says why each is out).
 * A checkpoint copies the state whole.
 *
 * system::FleetStepper sweeps chips with step() and fastForward(); the
 * phase methods below are step() split in three for per-phase timing.
 */

#ifndef AGSIM_CHIP_CHIP_H
#define AGSIM_CHIP_CHIP_H

#include <vector>

#include "chip/chip_checkpoint.h"
#include "chip/chip_config.h"
#include "chip/chip_health.h"
#include "chip/chip_state.h"
#include "chip/core_load.h"
#include "chip/safety_monitor.h"
#include "clock/dpll.h"
#include "fault/fault_injector.h"
#include "obs/metrics.h"
#include "pdn/decomposition.h"
#include "pdn/didt.h"
#include "pdn/ir_drop.h"
#include "pdn/vrm.h"
#include "power/core_power_model.h"
#include "power/thermal_model.h"
#include "power/vf_curve.h"
#include "sensors/cpm_bank.h"
#include "sensors/telemetry.h"
#include "stats/histogram.h"

namespace agsim::chip {

/**
 * One simulated processor.
 */
class Chip
{
  public:
    /**
     * @param config Chip configuration (copied).
     * @param vrm The platform VRM feeding this chip (not owned; must
     *        outlive the chip).
     */
    Chip(const ChipConfig &config, pdn::Vrm *vrm);

    /** @name Load assignment (scheduler-facing) */
    /// @{

    /** Assign one core's load for subsequent steps. */
    void setLoad(size_t core, const CoreLoad &load);

    /** Set every core to powered-on idle. */
    void clearLoads();

    /** Current load of a core. */
    const CoreLoad &load(size_t core) const;

    /// @}

    /** @name Mode control */
    /// @{

    /** Switch guardband mode (resets the VRM setpoint appropriately). */
    void setMode(GuardbandMode mode);

    GuardbandMode mode() const { return state_.mode; }

    /** Change the DVFS target frequency (resets the static setpoint). */
    void setTargetFrequency(Hertz f);

    Hertz targetFrequency() const { return state_.targetFrequency; }

    /**
     * Directly program the VRM setpoint — only legal in Disabled mode
     * (the Sec. 4.1 characterization methodology).
     */
    void forceSetpoint(Volts v);

    /// @}

    /** @name Fault injection and safety (see src/fault/) */
    /// @{

    /**
     * Attach a fault injector (not owned; must outlive the chip or be
     * detached with nullptr). The injector's clock advances with every
     * step from the moment of attach; detaching clears all injected
     * fault state from the sensor and VRM models.
     */
    void attachFaultInjector(fault::FaultInjector *injector);

    fault::FaultInjector *faultInjector() const { return faultInjector_; }

    /** Whether the safety monitor currently holds the chip demoted. */
    bool safetyDemoted() const
    {
        return state_.commandedMode != state_.mode;
    }

    /**
     * The mode the chip is *supposed* to be in: the commanded mode if
     * the safety monitor demoted the chip, else the current mode.
     */
    GuardbandMode commandedMode() const { return state_.commandedMode; }

    /** Timing emergencies from the last step (cores below vmin). */
    int lastStepEmergencies() const { return state_.lastEmergencies; }

    /** Worst true timing margin across non-gated cores, last step. */
    Volts lastWorstMargin() const { return state_.lastWorstMargin; }

    /** Firmware decisions suppressed by injected stalls. */
    int64_t missedFirmwareTicks() const
    {
        return state_.missedFirmwareTicks;
    }

    /** @name Public safety telemetry (scheduler/CSV-facing) */
    /// @{

    /** Timing emergencies since the last operator mode command. */
    int64_t totalEmergencies() const
    {
        return state_.safety.totalEmergencies;
    }

    /** Safety demotions since the last operator mode command. */
    int64_t totalDemotions() const { return state_.safety.demotions; }

    /** Safety re-arms since the last operator mode command. */
    int64_t totalRearms() const { return state_.safety.rearms; }

    /**
     * Deepest worst-case droop seen since the last operator mode
     * command (sticky maximum, reset by setMode()).
     */
    Volts latchedDroopDepth() const { return state_.latchedDroopDepth; }

    /**
     * Snapshot of this chip's safety telemetry for schedulers — the
     * tie between the watchdog and the placement policies in
     * src/core/ (see chip/chip_health.h).
     */
    ChipHealthView healthView() const;

    /// @}

    /// @}

    /** Advance the chip by dt. */
    void step(Seconds dt);

    /** @name Phase stepping
     *
     * step() is these three phases in order. They are public so a
     * profiler can time each phase on its own. Calling the three in
     * order with the same dt is exactly step(); any other interleaving
     * per chip is undefined.
     */
    /// @{

    /** Faults, thermal, electrical fixed point, di/dt draw. */
    void stepSensePhase(Seconds dt);

    /** CPM reads, DPLL updates, droop-response accounting. */
    void stepControlPhase(Seconds dt);

    /** Safety monitor, telemetry, firmware cadence, clock advance. */
    void stepCommitPhase(Seconds dt);

    /// @}

    /** @name Sampled stepping (phase-detected fast-forward)
     *
     * The interval-stepping primitive behind FleetStepper's sampled
     * mode (docs/PERFORMANCE.md): advance up to maxTicks ticks of dt
     * while holding the electrical operating point at its last solved
     * value. The caller (the phase detector) must have established
     * quiescence: no external state change since the last exact step,
     * no fault-plan edge within the span, and a stable margin window.
     *
     * What stays exact: thermal relaxation (the RC step composes
     * exponentially), firmware cadence and every firmware decision
     * (run at their due times against the held sensor view), fault
     * clock alignment, telemetry window timing, droop arrival
     * statistics (one aggregate draw over the span from the same
     * seeded model). What is approximated: per-tick ripple jitter is
     * replaced by its mean, per-core droop stall time is not accrued,
     * and RNG draw order differs from the exact path. Consumption
     * stops early when a firmware decision moves the setpoint (the
     * held operating point would no longer be valid).
     *
     * @return Ticks actually consumed (>= 1, <= maxTicks).
     */
    int64_t fastForward(int64_t maxTicks, Seconds dt);

    /**
     * Monotone counter bumped by every externally visible control
     * change (loads, mode, DVFS target, forced setpoint, injector
     * attach, safety demotion/re-arm). Phase detectors use it to drop
     * back to exact stepping on any transient.
     */
    uint64_t stateEpoch() const { return stateEpoch_; }

    /**
     * Run steps until the firmware and thermal state settle (used to
     * warm up before measuring; undervolting needs ~20 firmware
     * intervals to walk the guardband down).
     */
    void settle(Seconds duration = Seconds{1.5}, Seconds dt = Seconds{1e-3});

    /** @name State, checkpoint and restore (see chip/chip_checkpoint.h)
     *
     * A checkpoint is one copy of the ChipState plus the VRM rail's
     * setpoint and current and the fault-injector clock: everything a
     * restarted server needs to resume this chip deterministically. A
     * restore onto a same-config chip followed by identical steps is
     * bit-identical to the checkpointed chip continuing, and the two
     * states compare equal after every step (test-enforced in
     * tests/test_checkpoint.cc). Completed telemetry windows, the droop
     * histogram, and obs state are NOT captured — a restarted server's
     * RAM-resident history is gone by definition.
     */
    /// @{

    /** All of the chip's mutable model state. */
    const ChipState &state() const { return state_; }

    /** Snapshot the full resumable state. Side-effect free. */
    ChipCheckpoint checkpoint() const
    {
        ChipCheckpoint cp;
        checkpointInto(cp);
        return cp;
    }

    /**
     * checkpoint() into an existing value, reusing its vectors'
     * capacity (the recovery manager refreshes each socket's stored
     * checkpoint this way).
     */
    void checkpointInto(ChipCheckpoint &cp) const;

    /**
     * Restore a snapshot taken from a chip with the same config.
     * Everything is checked before anything is written: a coreCount or
     * seed mismatch, or any per-core vector of the wrong length, throws
     * ConfigError and leaves the chip as it was. Bumps stateEpoch() so
     * fleet phase detectors drop to exact stepping; if a fault injector
     * is attached its clock is restored and active faults re-applied.
     */
    void restoreCheckpoint(const ChipCheckpoint &checkpoint);

    /// @}

    /** @name Observables */
    /// @{

    size_t coreCount() const { return config_.coreCount; }

    /** Chip Vdd-rail power from the last step (the paper's metric). */
    Watts power() const { return state_.chipPower; }

    /** Vcs (storage) rail power from the last step. */
    Watts vcsPower() const { return state_.vcsPower; }

    /** Rail current from the last step. */
    Amps railCurrent() const { return state_.railCurrent; }

    /** VRM setpoint currently programmed for this chip's rail. */
    Volts setpoint() const;

    /** Static-guardband setpoint for the current target frequency. */
    Volts staticSetpoint() const;

    /** Undervolt relative to the static setpoint (>= 0 in practice). */
    Volts undervoltAmount() const;

    /** Core's clock frequency (0 when gated). */
    Hertz coreFrequency(size_t core) const;

    /** Core's steady on-chip voltage from the last step. */
    Volts coreVoltage(size_t core) const;

    /** Mean frequency across active cores (target if none active). */
    Hertz meanActiveFrequency() const;

    /** Lowest frequency across active cores (target if none active). */
    Hertz minActiveFrequency() const;

    /** Last step's drop decomposition as seen by the given core. */
    const pdn::DropDecomposition &decomposition(size_t core) const;

    /** Junction temperature. */
    Celsius temperature() const { return state_.temperature; }

    /**
     * Simulation time accumulated since construction (the stamp on
     * this chip's trace events). Pure bookkeeping: nothing in the
     * model reads it back.
     */
    Seconds simTime() const { return state_.simNow; }

    /**
     * Time accumulated toward the next firmware decision. Stays within
     * [0, firmwareInterval) across steps: the overshoot past the
     * interval is carried, not discarded, so the firmware cadence stays
     * exact for any dt.
     */
    Seconds sinceFirmware() const { return state_.sinceFirmware; }

    /** Per-step stall time from worst-case droop responses (core). */
    Seconds droopStall(size_t core) const;

    /** Number of active (running) cores. */
    size_t activeCoreCount() const;

    /**
     * Histogram of worst-case droop depths observed since construction
     * (or the last resetDroopHistogram()); one entry per step that saw
     * at least one droop event.
     */
    const stats::Histogram &droopHistogram() const
    {
        return droopHistogram_;
    }

    /** Clear the droop-depth histogram. */
    void resetDroopHistogram();

    /// @}

    /** @name Component access (tests, characterization, telemetry) */
    /// @{
    const power::VfCurve &vfCurve() const { return curve_; }
    const power::CorePowerModel &powerModel() const { return powerModel_; }
    const pdn::IrDropModel &irModel() const { return irModel_; }
    const sensors::ChipCpmArray &cpmArray() const { return cpms_; }
    sensors::Telemetry &telemetry() { return telemetry_; }
    const sensors::Telemetry &telemetry() const { return telemetry_; }
    const ChipConfig &config() const { return config_; }
    /// @}

  private:
    /** Solve the V<->P fixed point; fills the per-core state vectors. */
    void solveElectrical();

    /** Run one firmware decision (undervolt mode). */
    void runFirmware();

    /** One due firmware tick: stall check, decision, obs accounting. */
    void firmwareTick();

    /** Switch mode without resetting safety state (monitor actions). */
    void applyMode(GuardbandMode mode);

    /** Copy the injector's active fault set into the models. */
    void applyFaults();

    /** Register this chip's metric handles (constructor helper). */
    void registerMetrics();

    /**
     * Count timing emergencies and track the worst margin for the step,
     * then run the safety monitor and apply its action.
     *
     * @param worstCharacteristic The characterized worst-droop envelope
     *        for this step's load (including storm depth scaling).
     */
    void runSafetyMonitor(const pdn::DidtSample &noise,
                          Volts worstCharacteristic, Seconds dt);

    /** Apply a safety-monitor action (demote/re-arm bookkeeping). */
    void applySafetyAction(SafetyMonitor::Action action, int emergencies);

    /** Fill the step's di/dt amplitude scratch from the loads. */
    void fillDidtAmps(double droopDepthScale);

    const ChipConfig config_;
    pdn::Vrm *vrm_;

    power::VfCurve curve_;
    power::CorePowerModel powerModel_;
    power::ThermalModel thermal_;
    pdn::IrDropModel irModel_;
    pdn::DidtModel didt_;
    sensors::ChipCpmArray cpms_;
    sensors::Telemetry telemetry_;
    UndervoltController undervoltCtl_;
    clock::Dpll dpll_;
    SafetyMonitor safety_;

    // All mutable model state (see file comment).
    ChipState state_;

    // Preallocated scratch reused every step() so the steady-state hot
    // path performs no heap allocations.
    std::vector<Volts> scratchTypAmps_;
    std::vector<Volts> scratchWorstAmps_;
    std::vector<Volts> scratchLocalDrop_;
    sensors::StepObservation scratchObs_;

    // Sense-phase outputs consumed by the control/commit phases of the
    // same tick.
    pdn::DidtSample pendingNoise_;
    Volts pendingWorstCharacteristic_ = Volts{0.0};

    stats::Histogram droopHistogram_;

    fault::FaultInjector *faultInjector_ = nullptr;
    uint64_t stateEpoch_ = 0;

    // Observability (see docs/OBSERVABILITY.md). All of this is
    // write-only from the model's perspective: nothing below feeds back
    // into simulation state, so instrumented and plain runs are
    // bit-identical (tests/test_obs_determinism.cc).
    obs::Counter *obsSteps_ = nullptr;
    obs::Counter *obsFirmwareTicks_ = nullptr;
    obs::Counter *obsMissedTicks_ = nullptr;
    obs::Counter *obsModeTransitions_ = nullptr;
    obs::Counter *obsDemotions_ = nullptr;
    obs::Counter *obsRearms_ = nullptr;
    obs::Counter *obsEmergencies_ = nullptr;
    obs::Counter *obsDroopResponses_ = nullptr;
    obs::TimerStat obsSolverTimer_;
    obs::TimerStat obsFirmwareTimer_;
    obs::TimerStat obsTelemetryTimer_;
};

} // namespace agsim::chip

#endif // AGSIM_CHIP_CHIP_H
