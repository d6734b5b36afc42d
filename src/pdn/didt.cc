#include "pdn/didt.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace agsim::pdn {

DidtModel::DidtModel(const DidtParams &params) : params_(params)
{
    fatalIf(params_.droopRatePerSecond < 0.0, "negative droop rate");
    fatalIf(params_.alignmentGrowth < 0.0, "negative alignment growth");
    fatalIf(params_.depthJitter < 0.0 || params_.rippleJitter < 0.0,
            "negative jitter");
}

size_t
DidtModel::activeCount(std::span<const Volts> amps)
{
    size_t n = 0;
    for (Volts a : amps) {
        if (a > Volts{0.0})
            ++n;
    }
    return n;
}

Volts
DidtModel::typicalLevel(std::span<const Volts> typicalAmps) const
{
    const size_t active = activeCount(typicalAmps);
    if (active == 0)
        return Volts{0.0};
    // Mean amplitude of the active cores, smoothed by staggering: the
    // shared PDN averages independent per-core ripple so the chip-level
    // amplitude falls off as 1/sqrt(active).
    Volts sum;
    for (Volts a : typicalAmps)
        sum += a;
    const Volts meanAmp = sum / double(active);
    return meanAmp / std::sqrt(double(active));
}

Volts
DidtModel::worstDepth(std::span<const Volts> worstAmps) const
{
    const size_t active = activeCount(worstAmps);
    if (active == 0)
        return Volts{0.0};
    Volts peak;
    for (Volts a : worstAmps)
        peak = std::max(peak, a);
    // Random alignment across cores deepens the worst sag slightly with
    // each doubling of active cores (Sec. 4.3 observation).
    return peak * (1.0 + params_.alignmentGrowth *
                   std::log2(double(active)));
}

DidtSample
DidtModel::step(Rng &rng, std::span<const Volts> typicalAmps,
                std::span<const Volts> worstAmps, Seconds dt,
                double rateScale) const
{
    panicIf(typicalAmps.size() != worstAmps.size(),
            "didt amplitude vector size mismatch");
    panicIf(dt < Seconds{0.0}, "negative didt step");
    panicIf(rateScale <= 0.0, "droop rate scale must be positive");

    DidtSample sample;
    sample.typicalMean = typicalLevel(typicalAmps);
    if (sample.typicalMean > Volts{0.0}) {
        const double jitter =
            1.0 + params_.rippleJitter * rng.normal();
        sample.typicalNow = std::max(Volts{}, sample.typicalMean * jitter);
    }

    const size_t active = activeCount(worstAmps);
    if (active > 0) {
        const double rate = rateScale * params_.droopRatePerSecond *
                            (1.0 + params_.ratePerExtraCore *
                             double(active - 1));
        sample.droopEvents = rng.poisson(rate * dt.value());
        if (sample.droopEvents > 0) {
            const Volts base = worstDepth(worstAmps);
            // Depth of the deepest of k events: apply positive-biased
            // jitter once per event and keep the max.
            for (int i = 0; i < sample.droopEvents; ++i) {
                const double jitter =
                    std::exp(params_.depthJitter * rng.normal());
                sample.worstDroop = std::max(sample.worstDroop,
                                             base * jitter);
            }
        }
    }
    return sample;
}

} // namespace agsim::pdn
