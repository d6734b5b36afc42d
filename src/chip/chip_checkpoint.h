/**
 * @file
 * ChipCheckpoint: the complete resumable state of one chip.
 *
 * The recovery subsystem (src/recovery/) restarts failed servers from
 * periodic checkpoints instead of from cold, so a restored chip must
 * continue *bit-identically* to the chip that was checkpointed. A
 * checkpoint is the identity guards, one copy of the chip's ChipState
 * (chip/chip_state.h: every mutable model value the step path reads),
 * and the three values that live outside the chip:
 *  - the VRM rail's setpoint and last sensed current. The VRM is the
 *    server's object, shared by its sockets and driven directly by
 *    tests and benches, so the rail stays in pdn::Vrm and is restored
 *    through Vrm::restoreRail;
 *  - the attached fault injector's clock, restored through
 *    FaultInjector::restoreClock.
 *
 * Deliberately excluded (a restarted server's volatile history, or
 * values recomputed every tick): completed telemetry windows, the
 * droop histogram, obs metrics and trace state, the per-step scratch,
 * and the exact-keyed CPM and thermal memos.
 *
 * The struct is a plain in-memory value with no serialized form: the
 * recovery manager stores it per socket, refreshes it in place with
 * Chip::checkpointInto, and hands it straight back to
 * Chip::restoreCheckpoint.
 */

#ifndef AGSIM_CHIP_CHIP_CHECKPOINT_H
#define AGSIM_CHIP_CHIP_CHECKPOINT_H

#include <cstdint>

#include "chip/chip_state.h"
#include "common/units.h"

namespace agsim::chip {

/** Complete resumable state of one chip (see file comment). */
struct ChipCheckpoint
{
    /** @name Identity guards (verified on restore) */
    /// @{
    uint64_t seed = 0;
    uint64_t coreCount = 0;
    /// @}

    /** The chip's mutable model state, copied whole. */
    ChipState state;

    /** @name Outside the chip */
    /// @{
    /** This chip's VRM rail: programmed setpoint and sensed current. */
    Volts railSetpoint = Volts{0.0};
    Amps railLastCurrent = Amps{0.0};
    /** Whether a fault injector was attached at checkpoint time. */
    bool hadInjector = false;
    /** The injector's clock at checkpoint time (0 if none). */
    Seconds faultClock = Seconds{0.0};
    /// @}
};

} // namespace agsim::chip

#endif // AGSIM_CHIP_CHIP_CHECKPOINT_H
