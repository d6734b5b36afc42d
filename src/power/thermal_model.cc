#include "power/thermal_model.h"

#include <cmath>

#include "common/error.h"

namespace agsim::power {

ThermalModel::ThermalModel(const ThermalParams &params)
    : params_(params), temperature_(params.ambient)
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
ThermalModel::step(Watts power, Seconds dt)
{
    panicIf(dt < Seconds{0.0}, "negative thermal step");
    const Celsius target = steadyState(power);
    if (dt != alphaDt_) {
        alphaDt_ = dt;
        alpha_ = 1.0 - std::exp(-dt / params_.timeConstant);
    }
    temperature_ += (target - temperature_) * alpha_;
}

void
ThermalModel::settle(Watts power)
{
    temperature_ = steadyState(power);
}

void
ThermalModel::reset()
{
    temperature_ = params_.ambient;
}

} // namespace agsim::power
