/**
 * @file
 * First-order chip thermal model.
 *
 * The paper observes die temperature moving between 27 °C (low frequency,
 * idle-ish) and 38 °C (peak) and reports that this swing does not
 * significantly influence CPM readings (Sec. 4.1). We model temperature
 * only because leakage depends on it: a single thermal RC node driven by
 * chip power, with POWER7+-enterprise-cooling-calibrated resistance.
 */

#ifndef AGSIM_POWER_THERMAL_MODEL_H
#define AGSIM_POWER_THERMAL_MODEL_H

#include <limits>

#include "common/units.h"

namespace agsim::power {

/** Thermal model tunables. */
struct ThermalParams
{
    /** Inlet/ambient temperature. */
    Celsius ambient = Celsius{25.0};
    /** Junction-to-ambient thermal resistance (°C per watt). */
    Div<Celsius, Watts> thermalResistance{0.095};
    /** Thermal time constant of the die + heatsink node. */
    Seconds timeConstant = Seconds{8.0};
};

/**
 * Single-node RC thermal model: dT/dt = (T_ss(P) - T) / tau.
 *
 * The model holds parameters only; the node temperature belongs to the
 * caller (a chip keeps it in its ChipState), and step() advances it.
 */
class ThermalModel
{
  public:
    explicit ThermalModel(const ThermalParams &params = ThermalParams());

    /** The temperature a cold node starts at. */
    Celsius ambient() const { return params_.ambient; }

    /** Steady-state temperature at the given power. */
    Celsius steadyState(Watts power) const;

    /** Advance a node at `temperature` by dt under the given power. */
    void step(Celsius &temperature, Watts power, Seconds dt);

  private:
    ThermalParams params_;
    // step()'s relaxation factor 1 - exp(-dt/tau), memoized on the
    // exact dt it was computed for (NaN: none yet).
    Seconds alphaDt_ = Seconds{std::numeric_limits<double>::quiet_NaN()};
    double alpha_ = 0.0;
};

} // namespace agsim::power

#endif // AGSIM_POWER_THERMAL_MODEL_H
