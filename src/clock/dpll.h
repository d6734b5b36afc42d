/**
 * @file
 * Per-core digital phase-locked loop (DPLL) model (paper Sec. 2.2).
 *
 * Each POWER7+ core has its own DPLL that slews clock frequency toward
 * the point where the core's worst CPM sits at the calibration position —
 * i.e. toward fmaxWithMargin(on-chip voltage). The hardware slews as fast
 * as 7% in under 10 ns, so at agsim's millisecond step the loop is
 * effectively settled every step; the slew limit still matters for the
 * droop-response accounting (how many cycles a worst-case droop costs)
 * and is modeled explicitly.
 */

#ifndef AGSIM_CLOCK_DPLL_H
#define AGSIM_CLOCK_DPLL_H

#include "common/units.h"
#include "power/vf_curve.h"

namespace agsim::clock {

/** DPLL tunables. */
struct DpllParams
{
    /** Fractional frequency change per second (7% per 10 ns). */
    double slewPerSecond = 0.07 / 10e-9;
    /** Lowest frequency the DPLL will emit while unlocked. */
    Hertz floorFrequency = Hertz{1.0e9};
    /** Duration of the reduced-frequency response to one droop. */
    Seconds droopResponseTime = Seconds{200e-9};
};

/**
 * The chip's per-core frequency generators.
 *
 * In adaptive modes each core's DPLL tracks the margin target; a
 * frequency cap lets the undervolting firmware pin performance at the
 * nominal target while voltage is lowered. Every core of a chip shares
 * one Dpll (the curve and the tunables); each core's output frequency
 * and cap are a State the caller owns (a chip keeps them in its
 * ChipState).
 */
class Dpll
{
  public:
    /** One core's loop state. */
    struct State
    {
        /** Current output frequency. */
        Hertz frequency = Hertz{0.0};
        /** Upper frequency cap (0 = uncapped). */
        Hertz cap = Hertz{0.0};

        bool operator==(const State &) const = default;
    };

    /**
     * @param curve Shared V/f model (not owned).
     * @param params Loop tunables.
     */
    Dpll(const power::VfCurve *curve, const DpllParams &params);

    /** Force a core's output (static-guardband mode bypasses the loop). */
    void lockTo(State &core, Hertz f) const;

    /**
     * One control step of a core: slew toward the highest frequency
     * that preserves the calibrated margin at on-chip voltage v.
     *
     * @return New output frequency.
     */
    Hertz step(State &core, Volts vCore, Seconds dt) const;

    /**
     * Account for worst-case droop events within a step: the DPLL dips to
     * protect timing, costing cycles.
     *
     * @param frequency The core's output frequency.
     * @param droopDepth Depth of the deepest droop (volts).
     * @param events Number of droop events in the step.
     * @return Equivalent lost cycles, expressed in seconds of stall at
     *         the current frequency.
     */
    Seconds droopStall(Hertz frequency, Volts droopDepth, int events) const;

    const DpllParams &params() const { return params_; }

  private:
    const power::VfCurve *curve_;
    DpllParams params_;
};

} // namespace agsim::clock

#endif // AGSIM_CLOCK_DPLL_H
