/**
 * @file
 * Per-core and uncore power models.
 *
 * Power is modeled at the granularity the paper measures (the Vdd rail,
 * 32 ms aggregation): per-core dynamic power C_eff * V^2 * f * activity,
 * temperature- and voltage-dependent leakage, a constant-activity uncore
 * (interconnect + L3 controllers on the Vdd rail), and per-core power
 * gating that removes nearly all idle-core power (the POWER7+ deep-sleep
 * state used by loadline borrowing in Sec. 5.1).
 *
 * Calibration anchors (paper Fig. 3a): one active core ~60-70 W chip power
 * at the static 1.2 V / 4.2 GHz point, eight active cores ~125-140 W
 * depending on workload intensity.
 */

#ifndef AGSIM_POWER_CORE_POWER_MODEL_H
#define AGSIM_POWER_CORE_POWER_MODEL_H

#include "common/units.h"

namespace agsim::power {

/** Power-model tunables with POWER7+-calibrated defaults. */
struct PowerModelParams
{
    /** Reference voltage for the calibration anchors below. */
    Volts refVoltage = Volts{1.200};
    /** Reference frequency for the calibration anchors below. */
    Hertz refFrequency = Hertz{4.2e9};
    /**
     * Dynamic power of one core at (refVoltage, refFrequency) with
     * activity 1.0 and workload intensity 1.0.
     */
    Watts coreDynamicAtRef = Watts{11.5};
    /** Leakage of one powered-on core at refVoltage and refTemperature. */
    Watts coreLeakageAtRef = Watts{4.2};
    /**
     * Uncore (fabric, L3 control, PLLs) power on the Vdd rail at
     * reference conditions. Most of the L3 (eDRAM) sits on the separate
     * Vcs rail, so the Vdd uncore share is modest; idle power is
     * dominated by the cores, which is why per-core power gating (and
     * distributing the powered-on cores across sockets) pays off.
     */
    Watts uncoreAtRef = Watts{12.0};
    /** Activity factor of a powered-on but idle core (OS idle loop). */
    double idleActivity = 0.12;
    /** Fraction of leakage that survives power gating (header leakage). */
    double gatedLeakageFraction = 0.03;
    /** Reference temperature for leakage calibration. */
    Celsius refTemperature = Celsius{45.0};
    /** Leakage doubles every this many degrees above reference. */
    Celsius leakageDoublingTemp = Celsius{35.0};
    /** Leakage voltage exponent (I_leak ~ V^k; P = V * I). */
    double leakageVoltageExponent = 3.0;
};

/**
 * x^3 rounded to nearest, when that provably equals std::pow(x, 3.0).
 *
 * The cube is formed as an exact double-double with Dekker's product
 * (no FMA: the build is ISO C++, where GCC does not contract), then
 * rounded. glibc documents a worst-case pow error of 0.54 ULP, so when
 * the exact cube lies within 0.45 ULP of the rounded value no other
 * double is within reach of pow, and pow returns that same value.
 *
 * @param x Base; the fast path covers [2^-100, 2^100], where every
 *        partial product stays a normal double.
 * @param cube Receives the cube when the function returns true.
 * @return false when x is out of range or the exact cube lies too near
 *         a rounding midpoint; the caller then calls std::pow.
 */
bool certifiedCube(double x, double &cube);

/**
 * Stateless power evaluator shared by all cores of a chip.
 */
class CorePowerModel
{
  public:
    explicit CorePowerModel(const PowerModelParams &params =
                                PowerModelParams());

    const PowerModelParams &params() const { return params_; }

    /**
     * Dynamic power of one core.
     *
     * @param v On-chip voltage.
     * @param f Core clock frequency.
     * @param activity Switching activity in [0, ~1.3]: 0 for a clock-gated
     *        idle core, ~1 for a fully busy core; workload intensity
     *        (C_eff ratio) folds in here.
     */
    Watts coreDynamic(Volts v, Hertz f, double activity) const;

    /**
     * Temperature factor of leakage, 2^((T - Tref) / Tdouble). It
     * depends only on the junction temperature, so the chip computes it
     * once per electrical solve and every core and the uncore multiply
     * by the same value.
     */
    double leakageTemperatureFactor(Celsius temperature) const;

    /**
     * Voltage factor of leakage, vr^leakageVoltageExponent. For the
     * default exponent 3 the cube is computed exactly (see
     * certifiedCube()); every result equals std::pow(vr, exponent).
     */
    double leakageVoltageFactor(double vr) const;

    /**
     * Leakage power of one core.
     *
     * @param v On-chip voltage.
     * @param temperatureFactor leakageTemperatureFactor() of the
     *        junction temperature.
     * @param gated Whether the core is power gated (deep sleep).
     */
    Watts coreLeakage(Volts v, double temperatureFactor, bool gated) const;

    /**
     * Uncore power (scales with V^2 dynamic + leakage share).
     *
     * @param temperatureFactor leakageTemperatureFactor() of the
     *        junction temperature.
     */
    Watts uncore(Volts v, double temperatureFactor) const;

    /** Activity factor to charge a powered-on idle core. */
    double idleActivity() const { return params_.idleActivity; }

  private:
    double leakageScale(Volts v, double temperatureFactor) const;

    PowerModelParams params_;
};

} // namespace agsim::power

#endif // AGSIM_POWER_CORE_POWER_MODEL_H
