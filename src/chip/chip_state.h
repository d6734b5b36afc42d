/**
 * @file
 * ChipState: all of one chip's mutable model state, as one plain value.
 *
 * A Chip owns one of these by value, and its components (thermal node,
 * di/dt generator, DPLLs, safety monitor, telemetry) keep only their
 * parameters and work on the parts of it the chip passes in. So a copy
 * of a ChipState is a complete copy of the chip's model state: a
 * checkpoint (chip/chip_checkpoint.h) is one, and capture and restore
 * are assignments. Equality is field-wise, so two chips that compare
 * equal here step identically from now on.
 *
 * What it holds: the mode, the commanded mode and the DVFS target; the
 * power accumulators, firmware cadence, margins and the junction
 * temperature; the firmware, safety and fault bookkeeping; the per-core
 * loads, drop decompositions, solver vectors, droop stalls and DPLL
 * frequency and cap; the di/dt draw stream; the safety monitor's
 * machine; and the telemetry window in progress.
 *
 * What is deliberately not in it, and why:
 *  - the state epoch (Chip::stateEpoch): a restore must bump it, so it
 *    cannot be part of what a restore copies;
 *  - the completed telemetry windows, the droop histogram and the obs
 *    handles: volatile history that a restarted server loses;
 *  - the per-step scratch and the sense phase's pending outputs:
 *    recomputed every tick before they are read;
 *  - the CPM and thermal memos: keyed on an exact frequency or step
 *    length, so a memo never changes a result and is not state;
 *  - the VRM rail's setpoint and last current: the VRM is the server's
 *    object, shared by its sockets, and a checkpoint carries the two
 *    values beside the state (chip/chip_checkpoint.h);
 *  - the fault injector's clock: the injector is attached from outside,
 *    and a checkpoint carries its clock beside the state.
 *
 * Every member is a value: no pointer, reference, std::function or smart
 * pointer (the `plain-state` lint rule), so a state restored into
 * another chip never aliases the source chip's objects.
 */

#ifndef AGSIM_CHIP_CHIP_STATE_H
#define AGSIM_CHIP_CHIP_STATE_H

#include <cstdint>
#include <vector>

#include "chip/core_load.h"
#include "chip/guardband_mode.h"
#include "chip/safety_monitor.h"
#include "clock/dpll.h"
#include "common/rng.h"
#include "common/units.h"
#include "pdn/decomposition.h"
#include "sensors/telemetry.h"

namespace agsim::chip {

/** All mutable model state of one chip (see file comment). */
struct ChipState
{
    /** @name Mode and DVFS target */
    /// @{
    /** The mode the chip runs in now. */
    GuardbandMode mode = GuardbandMode::StaticGuardband;
    /**
     * The user-commanded mode; differs from mode only while the safety
     * monitor holds the chip demoted to StaticGuardband.
     */
    GuardbandMode commandedMode = GuardbandMode::StaticGuardband;
    Hertz targetFrequency = Hertz{0.0};
    /// @}

    /** @name Scalars */
    /// @{
    Watts chipPower = Watts{0.0};
    Watts vcsPower = Watts{0.0};
    Amps railCurrent = Amps{0.0};
    Seconds sinceFirmware = Seconds{0.0};
    Seconds simNow = Seconds{0.0};
    Volts staticSetpoint = Volts{0.0};
    Volts lastWorstMargin = Volts{0.0};
    Volts latchedDroopDepth = Volts{0.0};
    Celsius temperature = Celsius{0.0};
    /// @}

    /** @name Firmware, safety and fault bookkeeping */
    /// @{
    /** Timing emergencies, demotions and re-arms of the last step. */
    int lastEmergencies = 0;
    int lastDemotions = 0;
    int lastRearms = 0;
    /** Firmware decisions suppressed by injected stalls. */
    int64_t missedFirmwareTicks = 0;
    /** Whether a fault was active last step (trace edge detection). */
    bool lastFaultActive = false;
    /// @}

    /** @name Per-core vectors (coreCount entries each) */
    /// @{
    std::vector<CoreLoad> loads;
    /** Last step's drop decomposition as seen by each core. */
    std::vector<pdn::DropDecomposition> decomposition;
    std::vector<Volts> coreVoltage;     // steady (passive-only) voltage
    std::vector<Volts> coreCtrlVoltage; // steady minus typical ripple
    std::vector<Amps> coreCurrent;
    std::vector<Seconds> droopStall;
    std::vector<clock::Dpll::State> dpll;
    /// @}

    /** @name Component state */
    /// @{
    /** The di/dt model's draw stream. */
    Rng didtRng;
    SafetyMonitor::State safety;
    /** The telemetry window in progress. */
    sensors::Telemetry::State telemetry;
    /// @}

    bool operator==(const ChipState &) const = default;
};

} // namespace agsim::chip

#endif // AGSIM_CHIP_CHIP_STATE_H
