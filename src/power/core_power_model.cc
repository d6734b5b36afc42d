#include "power/core_power_model.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/error.h"

namespace agsim::power {

namespace {

/** a * b as the exact sum p + err (Dekker; a, b, p and err normal). */
inline double
twoProduct(double a, double b, double &err)
{
    // Veltkamp split: each half has at most 26 significant bits, so the
    // four partial products below are exact.
    constexpr double splitter = 134217729.0; // 2^27 + 1
    const double ca = splitter * a;
    const double aHi = ca - (ca - a);
    const double aLo = a - aHi;
    const double cb = splitter * b;
    const double bHi = cb - (cb - b);
    const double bLo = b - bHi;
    const double p = a * b;
    err = ((aHi * bHi - p) + aHi * bLo + aLo * bHi) + aLo * bLo;
    return p;
}

} // namespace

bool
certifiedCube(double x, double &cube)
{
    // The negated test also sends NaN to the fallback.
    if (!(x >= 0x1p-100 && x <= 0x1p100))
        return false;
    double sqErr;
    const double sq = twoProduct(x, x, sqErr); // x^2 = sq + sqErr
    double cubeErr;
    const double hi = twoProduct(sq, x, cubeErr); // sq * x = hi + cubeErr
    // x^3 - hi, to within ~2^-104 of x^3 (only sqErr * x is rounded).
    const double tail = cubeErr + sqErr * x;
    const double rounded = hi + tail;
    // hi and rounded are at most one ULP apart, so hi - rounded is exact.
    const double residual = (hi - rounded) + tail;
    // The gap to the next double below is the smaller of the two ULPs
    // around a power of two, so the test is safe on either side.
    const double ulpBelow =
        rounded - std::bit_cast<double>(std::bit_cast<uint64_t>(rounded) - 1);
    if (std::abs(residual) >= 0.45 * ulpBelow)
        return false;
    cube = rounded;
    return true;
}

CorePowerModel::CorePowerModel(const PowerModelParams &params)
    : params_(params)
{
    fatalIf(params_.refVoltage <= Volts{0.0}, "reference voltage must be positive");
    fatalIf(params_.refFrequency <= Hertz{0.0},
            "reference frequency must be positive");
    fatalIf(params_.coreDynamicAtRef < Watts{0.0} || params_.coreLeakageAtRef < Watts{0.0},
            "negative reference power");
    fatalIf(params_.gatedLeakageFraction < 0.0 ||
            params_.gatedLeakageFraction > 1.0,
            "gated leakage fraction must be in [0,1]");
}

Watts
CorePowerModel::coreDynamic(Volts v, Hertz f, double activity) const
{
    panicIf(activity < 0.0, "negative activity");
    const double vr = v / params_.refVoltage;
    const double fr = f / params_.refFrequency;
    return params_.coreDynamicAtRef * vr * vr * fr * activity;
}

double
CorePowerModel::leakageTemperatureFactor(Celsius temperature) const
{
    return std::exp2((temperature - params_.refTemperature) /
                     params_.leakageDoublingTemp);
}

double
CorePowerModel::leakageVoltageFactor(double vr) const
{
    double cube;
    if (params_.leakageVoltageExponent == 3.0 && certifiedCube(vr, cube))
        return cube;
    return std::pow(vr, params_.leakageVoltageExponent);
}

double
CorePowerModel::leakageScale(Volts v, double temperatureFactor) const
{
    const double vr = v / params_.refVoltage;
    return leakageVoltageFactor(vr) * temperatureFactor;
}

Watts
CorePowerModel::coreLeakage(Volts v, double temperatureFactor,
                            bool gated) const
{
    const Watts full =
        params_.coreLeakageAtRef * leakageScale(v, temperatureFactor);
    return gated ? full * params_.gatedLeakageFraction : full;
}

Watts
CorePowerModel::uncore(Volts v, double temperatureFactor) const
{
    // Uncore is roughly 70% switching (V^2 at near-constant fabric clock)
    // and 30% leakage-like at the calibration point.
    const double vr = v / params_.refVoltage;
    const Watts dynamicPart = 0.7 * params_.uncoreAtRef * vr * vr;
    const Watts leakagePart = 0.3 * params_.uncoreAtRef *
                              leakageScale(v, temperatureFactor);
    return dynamicPart + leakagePart;
}

} // namespace agsim::power
