/**
 * @file
 * ChipCheckpoint: the complete resumable state of one chip.
 *
 * The recovery subsystem (src/recovery/) restarts failed servers from
 * periodic checkpoints instead of from cold, so a restored chip must
 * continue *bit-identically* to the chip that was checkpointed. That
 * forces the snapshot to capture every piece of state the step path
 * reads: the chip's ChipState (copied whole), per-core loads and drop
 * decomposition (Chip::fastForward re-reads the last solved
 * decomposition), the thermal node, the di/dt RNG stream (including a
 * cached Box-Muller draw), per-core DPLL frequency/cap, the safety-
 * monitor state machine, the in-progress telemetry accumulators, the
 * VRM rail electricals, firmware bookkeeping counters, and the
 * fault-injector clock.
 *
 * Deliberately excluded (a restarted server's volatile history):
 * completed telemetry windows, the droop histogram, obs metrics/trace
 * state, and the per-step scratch buffers (recomputed every tick).
 *
 * The struct is a plain in-memory value with no serialized form: the
 * recovery manager stores it per socket and hands it straight back to
 * Chip::restoreCheckpoint.
 */

#ifndef AGSIM_CHIP_CHIP_CHECKPOINT_H
#define AGSIM_CHIP_CHIP_CHECKPOINT_H

#include <cstdint>
#include <vector>

#include "chip/chip_config.h"
#include "chip/chip_state.h"
#include "chip/core_load.h"
#include "chip/safety_monitor.h"
#include "common/rng.h"
#include "common/units.h"
#include "pdn/decomposition.h"
#include "sensors/telemetry.h"

namespace agsim::chip {

/** Complete resumable state of one chip (see file comment). */
struct ChipCheckpoint
{
    /** @name Identity guards (verified on restore) */
    /// @{
    uint64_t seed = 0;
    uint64_t coreCount = 0;
    /// @}

    /** @name Mode / target state */
    /// @{
    GuardbandMode mode = GuardbandMode::StaticGuardband;
    /** The user-commanded mode (differs from mode while demoted). */
    GuardbandMode commandedMode = GuardbandMode::StaticGuardband;
    Hertz targetFrequency = Hertz{0.0};
    /// @}

    /** The chip's hot per-tick state (see chip/chip_state.h). */
    ChipState state;

    /** @name Scheduler-visible and solver state */
    /// @{
    std::vector<CoreLoad> loads;
    std::vector<pdn::DropDecomposition> decomposition;
    /// @}

    /** @name Component state */
    /// @{
    Celsius temperature = Celsius{0.0};
    Rng::State didtRng;
    SafetyMonitor::Snapshot safety;
    sensors::Telemetry::Snapshot telemetry;
    std::vector<Hertz> dpllFrequency;
    std::vector<Hertz> dpllCap;
    /** This chip's VRM rail: programmed setpoint and sensed current. */
    Volts railSetpoint = Volts{0.0};
    Amps railLastCurrent = Amps{0.0};
    /// @}

    /** @name Firmware / fault bookkeeping */
    /// @{
    int lastEmergencies = 0;
    int lastDemotions = 0;
    int lastRearms = 0;
    int64_t missedFirmwareTicks = 0;
    /** Whether a fault injector was attached at checkpoint time. */
    bool hadInjector = false;
    /** The injector's clock at checkpoint time (0 if none). */
    Seconds faultClock = Seconds{0.0};
    /** Last-step fault-active flag (obs edge detection). */
    bool lastFaultActive = false;
    /// @}
};

} // namespace agsim::chip

#endif // AGSIM_CHIP_CHIP_CHECKPOINT_H
