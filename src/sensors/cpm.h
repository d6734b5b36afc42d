/**
 * @file
 * Critical path monitor (CPM) sensor model (paper Sec. 2.2, Fig. 2b).
 *
 * A CPM launches a signal down synthetic paths that mimic the chip's
 * critical logic and, one cycle later, reads how far the edge propagated
 * through a 12-element detector. The output is an integer position 0-11:
 * lower means less timing margin. During calibration each CPM is tuned to
 * output a target position (2 in POWER7+) at the calibrated margin; one
 * position corresponds to ~21 mV of on-chip voltage at peak frequency
 * (paper Fig. 6a).
 *
 * The model maps (on-chip voltage, clock frequency) to an edge position
 * through the shared VfCurve, with per-instance process variation:
 * a sensitivity scale factor (mV/bit spread across CPMs, Fig. 6b) and a
 * calibration offset error (fractions of a bit, [13]).
 */

#ifndef AGSIM_SENSORS_CPM_H
#define AGSIM_SENSORS_CPM_H

#include "common/units.h"
#include "power/vf_curve.h"

namespace agsim::sensors {

/** CPM hardware constants and variation knobs. */
struct CpmParams
{
    /** Edge-detector positions (POWER7+: 12, output 0..11). */
    int positions = 12;
    /** Calibration target position. */
    int calibrationPosition = 2;
    /** Nominal sensitivity at the reference frequency (volts per bit). */
    Volts voltsPerBitAtRef = Volts{21e-3};
    /**
     * Exponent of the mild frequency dependence of sensitivity:
     * voltsPerBit(f) = voltsPerBitAtRef * (fref / f)^exponent.
     * Lower frequency -> longer cycle -> each detector element covers
     * more voltage headroom.
     */
    double sensitivityFreqExponent = 0.5;
    /** Std-dev of per-CPM multiplicative sensitivity variation. */
    double sensitivitySpread = 0.08;
    /** Std-dev of per-CPM calibration offset, in bits. */
    double offsetSpreadBits = 0.35;
    /**
     * Std-dev of the *post-calibration* residual error, in bits. The
     * raw offset above is what an uncalibrated CPM would show (the
     * Fig. 6b spread); calibration nulls most of it, and only this
     * residual perturbs the DPLL control loop.
     */
    double controlOffsetSpreadBits = 0.08;
};

/**
 * One critical path monitor instance.
 *
 * Process variation is frozen at construction from (seed, instance id) so
 * a given chip always has the same 40-CPM personality.
 */
class Cpm
{
  public:
    /**
     * @param curve Shared voltage-frequency model (not owned).
     * @param params Hardware constants.
     * @param sensitivityScale Multiplicative process variation (~1.0).
     * @param offsetBits Additive calibration error in bits.
     * @param controlOffsetBits Post-calibration residual error (bits)
     *        that leaks into the DPLL control path.
     */
    Cpm(const power::VfCurve *curve, const CpmParams &params,
        double sensitivityScale, double offsetBits,
        double controlOffsetBits = 0.0);

    /** Sensitivity (volts per bit) at frequency f for this instance. */
    Volts voltsPerBit(Hertz f) const;

    /**
     * Raw (unclamped, fractional) edge position for an on-chip voltage
     * and clock frequency.
     */
    double rawPosition(Volts v, Hertz f) const;

    /** Quantized, clamped edge position (the hardware output 0..11). */
    int read(Volts v, Hertz f) const;

    /** @name Bank-shared fast path
     *
     * The five CPMs of a bank read the same (voltage, frequency) pair,
     * so the margin excess and the frequency-dependent sensitivity
     * scaling are computed once per bank read and shared; only the
     * per-instance variation is applied per CPM. readAt is
     * value-identical to read() — CpmBank uses these on the per-step
     * path.
     */
    /// @{

    /** (refFrequency / f)^sensitivityFreqExponent. */
    static double frequencyScaling(double ratio, double exponent);

    /** read() given precomputed margin excess and frequency scaling. */
    int readAt(Volts excess, double scaling) const;

    /**
     * Voltage error this CPM injects into the control loop, given the
     * precomputed frequency scaling: its residual calibration error
     * expressed in volts. Negative values make the DPLL conservative
     * (it believes margin is smaller than it is).
     */
    Volts controlBiasScaled(double scaling) const;

    /// @}

    /**
     * Invert a reading into an estimated on-chip voltage at frequency f —
     * the paper's "CPMs as performance counters for voltage" methodology
     * (Sec. 4.1). Uses the *nominal* sensitivity, as the experimenter
     * does not know each CPM's private variation.
     */
    Volts positionToVoltage(double position, Hertz f) const;

    const CpmParams &params() const { return params_; }
    const power::VfCurve *curve() const { return curve_; }
    double sensitivityScale() const { return sensitivityScale_; }
    double offsetBits() const { return offsetBits_; }
    double controlOffsetBits() const { return controlOffsetBits_; }

  private:
    const power::VfCurve *curve_;
    CpmParams params_;
    double sensitivityScale_;
    double offsetBits_;
    double controlOffsetBits_;
};

} // namespace agsim::sensors

#endif // AGSIM_SENSORS_CPM_H
