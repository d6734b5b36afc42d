/**
 * @file
 * Per-core load descriptor: what the scheduler/workload layer tells a
 * core to be doing during the next simulation step.
 */

#ifndef AGSIM_CHIP_CORE_LOAD_H
#define AGSIM_CHIP_CORE_LOAD_H

#include "common/units.h"

namespace agsim::chip {

/**
 * One core's activity assignment.
 *
 * A core is in exactly one of three states:
 *  - gated: deep sleep, nearly no power, no clock (loadline borrowing's
 *    idle-power elimination);
 *  - powered but idle: OS idle loop, small activity (the Sec. 3 baseline
 *    for inactive cores);
 *  - active: running a thread with the given workload intensity and
 *    noise signature.
 */
struct CoreLoad
{
    /** Power-gated (deep sleep). Mutually exclusive with active. */
    bool gated = false;
    /** Running a workload thread. */
    bool active = false;
    /** Dynamic activity factor (workload intensity); ignored if !active. */
    double activity = 0.0;
    /** Typical di/dt ripple amplitude contributed by this core. */
    Volts didtTypicalAmp = Volts{0.0};
    /** Worst-case droop amplitude contributed by this core. */
    Volts didtWorstAmp = Volts{0.0};

    /** An idle, powered-on core. */
    static CoreLoad idle() { return CoreLoad{}; }

    /** A power-gated core. */
    static CoreLoad powerGated()
    {
        CoreLoad load;
        load.gated = true;
        return load;
    }

    /** An active core with the given intensity and noise amplitudes. */
    static CoreLoad
    running(double activity, Volts didtTyp, Volts didtWorst)
    {
        CoreLoad load;
        load.active = true;
        load.activity = activity;
        load.didtTypicalAmp = didtTyp;
        load.didtWorstAmp = didtWorst;
        return load;
    }

    bool operator==(const CoreLoad &) const = default;
};

} // namespace agsim::chip

#endif // AGSIM_CHIP_CORE_LOAD_H
