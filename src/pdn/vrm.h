/**
 * @file
 * Voltage regulator module (VRM) with per-rail loadline and current sensing.
 *
 * Matches the platform topology of the paper's Fig. 11: one VRM chip
 * generates multiple independently-settable Vdd rails (one per processor
 * socket), and each rail sees its own loadline: the delivered voltage sags
 * below the setpoint proportionally to the current drawn through that
 * rail's power-delivery path. The VRM exposes per-rail current sensors —
 * the same sensors the paper uses to quantify passive drop (Sec. 4.3).
 */

#ifndef AGSIM_PDN_VRM_H
#define AGSIM_PDN_VRM_H

#include <cstddef>
#include <vector>

#include "common/units.h"

namespace agsim::pdn {

/** Per-rail electrical parameters. */
struct RailParams
{
    /** Loadline (output) resistance of this rail's delivery path. */
    Ohms loadlineResistance = Ohms{0.46e-3};
    /** Initial setpoint. */
    Volts initialSetpoint = Volts{1.200};
    /** Lowest setpoint the controller may program. */
    Volts minSetpoint = Volts{0.900};
    /** Highest setpoint the controller may program. */
    Volts maxSetpoint = Volts{1.250};
    /** Setpoint DAC resolution (POWER7+ firmware steps ~6.25 mV). */
    Volts setpointStep = Volts{6.25e-3};
};

/**
 * Multi-rail VRM.
 *
 * Rails are addressed by index; the two-socket server uses rail i for
 * socket i. Setpoints quantize to the DAC step and clamp to the safe
 * window, mirroring real firmware constraints.
 */
class Vrm
{
  public:
    /** Build a VRM with `railCount` rails sharing the same parameters. */
    Vrm(size_t railCount, const RailParams &params = RailParams());

    /** Number of rails. */
    size_t railCount() const { return rails_.size(); }

    /** Program a rail setpoint (quantized and clamped). */
    void setSetpoint(size_t rail, Volts v);

    /** Programmed setpoint of a rail. */
    Volts setpoint(size_t rail) const;

    /**
     * Update the load current on a rail and return the delivered voltage
     * (setpoint minus loadline sag).
     */
    Volts deliver(size_t rail, Amps current);

    /** Delivered voltage for an arbitrary current without updating state. */
    Volts outputAt(size_t rail, Amps current) const;

    /** Loadline voltage sag at the last delivered current. */
    Volts loadlineDrop(size_t rail) const;

    /** Current-sensor reading (last delivered current). */
    Amps sensedCurrent(size_t rail) const;

    /** Rail parameters. */
    const RailParams &railParams(size_t rail) const;

    /** @name Fault-injection points (see src/fault/) */
    /// @{

    /**
     * A stuck DAC ignores subsequent setSetpoint() calls (the rail holds
     * its last programmed value) until the fault clears.
     */
    void injectDacStuck(size_t rail, bool stuck);

    /**
     * A DAC offset shifts the *delivered* voltage without changing the
     * programmed setpoint: the firmware keeps believing it programmed
     * setpoint(), the silicon sees setpoint() + offset. Models
     * step-quantization/reference error; negative = under-delivery.
     */
    void injectDacOffset(size_t rail, Volts offset);

    bool dacStuck(size_t rail) const;

    /** Clear injected fault state on every rail. */
    void clearFaults();

    /// @}

    /**
     * Restore a rail's electrical state from a chip checkpoint: the
     * exact programmed setpoint and last sensed current, bypassing DAC
     * quantization/clamping (the value was produced by this VRM, so it
     * is already legal) and any stuck-DAC fault. Injected fault state
     * on the rail is cleared; the caller re-applies active faults.
     */
    void restoreRail(size_t rail, Volts setpoint, Amps lastCurrent);

  private:
    struct Rail
    {
        RailParams params;
        Volts setpoint;
        Amps lastCurrent = Amps{0.0};
        bool dacStuck = false;
        Volts dacOffset = Volts{0.0};
    };

    const Rail &railAt(size_t rail) const;
    Rail &railAt(size_t rail);

    std::vector<Rail> rails_;
};

} // namespace agsim::pdn

#endif // AGSIM_PDN_VRM_H
