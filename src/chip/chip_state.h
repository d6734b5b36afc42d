/**
 * @file
 * ChipState: the per-chip values every simulation tick reads and
 * writes.
 *
 * A Chip owns one of these by value, and a ChipCheckpoint stores a copy
 * of it, so capture and restore are plain assignments. The scalars are
 * the power accumulators, firmware cadence and margins; the per-core
 * vectors (coreCount entries each) are the electrical solver's inputs
 * and outputs and the droop-response stall times.
 */

#ifndef AGSIM_CHIP_CHIP_STATE_H
#define AGSIM_CHIP_CHIP_STATE_H

#include <vector>

#include "common/units.h"

namespace agsim::chip {

/** Hot per-tick state of one chip (see file comment). */
struct ChipState
{
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
    /// @}

    /** @name Per-core vectors (coreCount entries each) */
    /// @{
    std::vector<Volts> coreVoltage;     // steady (passive-only) voltage
    std::vector<Volts> coreCtrlVoltage; // steady minus typical ripple
    std::vector<Amps> coreCurrent;
    std::vector<Seconds> droopStall;
    /// @}
};

} // namespace agsim::chip

#endif // AGSIM_CHIP_CHIP_STATE_H
