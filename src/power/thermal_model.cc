#include "power/thermal_model.h"

#include <cmath>

#include "common/error.h"

namespace agsim::power {

ThermalModel::ThermalModel(const ThermalParams &params)
    : params_(params)
{
    fatalIf(params_.thermalResistance.value() < 0.0,
            "negative thermal resistance");
    fatalIf(params_.timeConstant <= Seconds{0.0},
            "thermal time constant must be positive");
}

Celsius
ThermalModel::steadyState(Watts power) const
{
    return params_.ambient + params_.thermalResistance * power;
}

void
ThermalModel::step(Celsius &temperature, Watts power, Seconds dt)
{
    panicIf(dt < Seconds{0.0}, "negative thermal step");
    const Celsius target = steadyState(power);
    if (dt != alphaDt_) {
        alphaDt_ = dt;
        alpha_ = 1.0 - std::exp(-dt / params_.timeConstant);
    }
    temperature += (target - temperature) * alpha_;
}

} // namespace agsim::power
