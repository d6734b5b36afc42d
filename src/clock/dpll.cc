#include "clock/dpll.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace agsim::clock {

Dpll::Dpll(const power::VfCurve *curve, const DpllParams &params)
    : curve_(curve), params_(params)
{
    fatalIf(curve_ == nullptr, "DPLL needs a VfCurve");
    fatalIf(params_.slewPerSecond <= 0.0, "DPLL slew must be positive");
}

void
Dpll::lockTo(State &core, Hertz f) const
{
    panicIf(f <= Hertz{0.0}, "DPLL lock frequency must be positive");
    core.frequency = f;
}

Hertz
Dpll::step(State &core, Volts vCore, Seconds dt) const
{
    panicIf(dt < Seconds{0.0}, "negative DPLL step");
    Hertz target = std::max(curve_->fmaxWithMargin(vCore),
                            params_.floorFrequency);
    if (core.cap > Hertz{0.0})
        target = std::min(target, core.cap);

    // Slew limit: |df| <= f * slewPerSecond * dt.
    const Hertz maxDelta =
        core.frequency * (params_.slewPerSecond * dt.value());
    const Hertz delta =
        std::clamp(target - core.frequency, -maxDelta, maxDelta);
    core.frequency += delta;
    return core.frequency;
}

Seconds
Dpll::droopStall(Hertz frequency, Volts droopDepth, int events) const
{
    if (events <= 0 || droopDepth <= Volts{0.0})
        return Seconds{0.0};
    // During each droop the DPLL undershoots by the frequency equivalent
    // of the droop depth for roughly the response time.
    const Hertz dip = curve_->marginToFrequency(droopDepth);
    const double dipFraction = std::min(1.0, dip / frequency);
    return dipFraction * params_.droopResponseTime * double(events);
}

} // namespace agsim::clock
