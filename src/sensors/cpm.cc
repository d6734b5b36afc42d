#include "sensors/cpm.h"

#include <cmath>

#include "common/error.h"

namespace agsim::sensors {

Cpm::Cpm(const power::VfCurve *curve, const CpmParams &params,
         double sensitivityScale, double offsetBits,
         double controlOffsetBits)
    : curve_(curve), params_(params), sensitivityScale_(sensitivityScale),
      offsetBits_(offsetBits), controlOffsetBits_(controlOffsetBits)
{
    fatalIf(curve_ == nullptr, "CPM needs a VfCurve");
    fatalIf(params_.positions < 2, "CPM needs at least two positions");
    fatalIf(params_.calibrationPosition < 0 ||
            params_.calibrationPosition >= params_.positions,
            "CPM calibration position out of range");
    fatalIf(params_.voltsPerBitAtRef <= Volts{0.0},
            "CPM sensitivity must be positive");
    fatalIf(sensitivityScale_ <= 0.0,
            "CPM sensitivity scale must be positive");
}

namespace {

/**
 * ratio^exponent with a fast path for the default exponent of 0.5:
 * both std::pow and std::sqrt are correctly rounded, so the substitution
 * is value-identical while avoiding the full pow on every CPM read —
 * this sits on the chip's per-step hot path (dozens of reads per step).
 */
inline double
sensitivityScaling(double ratio, double exponent)
{
    if (exponent == 0.5)
        return std::sqrt(ratio);
    if (exponent == 0.0)
        return 1.0;
    return std::pow(ratio, exponent);
}

/**
 * The detector position nearest raw, clamped to [0, positions - 1].
 * The clamp happens in double, before the conversion, because int(x)
 * is undefined for x outside int's range; a NaN reads as position 0.
 */
inline int
quantize(double raw, int positions)
{
    const double rounded = std::floor(raw + 0.5);
    const double top = double(positions - 1);
    return int(rounded >= top ? top : rounded > 0.0 ? rounded : 0.0);
}

} // namespace

Volts
Cpm::voltsPerBit(Hertz f) const
{
    const double ratio = curve_->params().refFrequency / f;
    return params_.voltsPerBitAtRef * sensitivityScale_ *
           sensitivityScaling(ratio, params_.sensitivityFreqExponent);
}

double
Cpm::rawPosition(Volts v, Hertz f) const
{
    // Margin relative to the calibrated operating point: at margin ==
    // calibratedMargin the CPM outputs exactly its calibration position.
    const Volts margin = curve_->marginAt(v, f);
    const Volts excess = margin - curve_->params().calibratedMargin;
    return double(params_.calibrationPosition) + excess / voltsPerBit(f) +
           offsetBits_;
}

int
Cpm::read(Volts v, Hertz f) const
{
    return quantize(rawPosition(v, f), params_.positions);
}

double
Cpm::frequencyScaling(double ratio, double exponent)
{
    return sensitivityScaling(ratio, exponent);
}

int
Cpm::readAt(Volts excess, double scaling) const
{
    // Same arithmetic as read(): (voltsPerBitAtRef * sensitivityScale_)
    // * scaling keeps the multiplication order of voltsPerBit(), so the
    // result is bit-identical to read(v, f) with excess = marginAt(v, f)
    // - calibratedMargin and scaling = frequencyScaling(fref / f, exp).
    const Volts vpb =
        params_.voltsPerBitAtRef * sensitivityScale_ * scaling;
    const double raw =
        double(params_.calibrationPosition) + excess / vpb + offsetBits_;
    return quantize(raw, params_.positions);
}

Volts
Cpm::controlBiasScaled(double scaling) const
{
    return controlOffsetBits_ *
           (params_.voltsPerBitAtRef * sensitivityScale_ * scaling);
}

Volts
Cpm::positionToVoltage(double position, Hertz f) const
{
    // Inversion with *nominal* sensitivity: the experimenter's view.
    const double ratio = curve_->params().refFrequency / f;
    const Volts nominalVpb = params_.voltsPerBitAtRef *
        sensitivityScaling(ratio, params_.sensitivityFreqExponent);
    const Volts excess =
        (position - double(params_.calibrationPosition)) * nominalVpb;
    return curve_->vminAt(f) + curve_->params().calibratedMargin + excess;
}

} // namespace agsim::sensors
