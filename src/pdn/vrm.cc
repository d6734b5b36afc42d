#include "pdn/vrm.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace agsim::pdn {

Vrm::Vrm(size_t railCount, const RailParams &params)
{
    fatalIf(railCount == 0, "VRM needs at least one rail");
    fatalIf(params.loadlineResistance < Ohms{0.0}, "negative loadline resistance");
    fatalIf(params.minSetpoint > params.maxSetpoint,
            "empty setpoint window");
    fatalIf(params.setpointStep <= Volts{0.0}, "setpoint step must be positive");
    rails_.reserve(railCount);
    for (size_t i = 0; i < railCount; ++i) {
        Rail rail{params, params.initialSetpoint, Amps{0.0}};
        rails_.push_back(rail);
    }
    for (auto &rail : rails_)
        setSetpoint(&rail - rails_.data(), rail.setpoint);
}

const Vrm::Rail &
Vrm::railAt(size_t rail) const
{
    panicIf(rail >= rails_.size(), "rail index out of range");
    return rails_[rail];
}

Vrm::Rail &
Vrm::railAt(size_t rail)
{
    panicIf(rail >= rails_.size(), "rail index out of range");
    return rails_[rail];
}

void
Vrm::setSetpoint(size_t rail, Volts v)
{
    Rail &r = railAt(rail);
    // A stuck DAC silently drops the write; the rail holds its last
    // programmed value until the fault clears.
    if (r.dacStuck)
        return;
    const Volts clamped = std::clamp(v, r.params.minSetpoint,
                                     r.params.maxSetpoint);
    // Quantize to the DAC step, biased toward the safe (higher) side so a
    // requested voltage is never silently under-delivered.
    const double steps = std::ceil(
        (clamped - r.params.minSetpoint) / r.params.setpointStep - 1e-9);
    r.setpoint = std::min(r.params.minSetpoint +
                          steps * r.params.setpointStep,
                          r.params.maxSetpoint);
}

Volts
Vrm::setpoint(size_t rail) const
{
    return railAt(rail).setpoint;
}

Volts
Vrm::deliver(size_t rail, Amps current)
{
    panicIf(current < Amps{0.0}, "negative rail current");
    Rail &r = railAt(rail);
    r.lastCurrent = current;
    return outputAt(rail, current);
}

Volts
Vrm::outputAt(size_t rail, Amps current) const
{
    const Rail &r = railAt(rail);
    return r.setpoint + r.dacOffset -
           r.params.loadlineResistance * current;
}

Volts
Vrm::loadlineDrop(size_t rail) const
{
    const Rail &r = railAt(rail);
    return r.params.loadlineResistance * r.lastCurrent;
}

Amps
Vrm::sensedCurrent(size_t rail) const
{
    return railAt(rail).lastCurrent;
}

const RailParams &
Vrm::railParams(size_t rail) const
{
    return railAt(rail).params;
}

void
Vrm::injectDacStuck(size_t rail, bool stuck)
{
    railAt(rail).dacStuck = stuck;
}

void
Vrm::injectDacOffset(size_t rail, Volts offset)
{
    railAt(rail).dacOffset = offset;
}

bool
Vrm::dacStuck(size_t rail) const
{
    return railAt(rail).dacStuck;
}

void
Vrm::clearFaults()
{
    for (auto &rail : rails_) {
        rail.dacStuck = false;
        rail.dacOffset = Volts{0.0};
    }
}

void
Vrm::restoreRail(size_t rail, Volts setpoint, Amps lastCurrent)
{
    Rail &r = railAt(rail);
    r.setpoint = setpoint;
    r.lastCurrent = lastCurrent;
    r.dacStuck = false;
    r.dacOffset = Volts{0.0};
}

} // namespace agsim::pdn
