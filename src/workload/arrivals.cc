#include "workload/arrivals.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace agsim::workload {

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
    case ArrivalKind::Steady:
        return "steady";
    case ArrivalKind::Diurnal:
        return "diurnal";
    case ArrivalKind::Mmpp:
        return "mmpp";
    case ArrivalKind::FlashCrowd:
        return "flash";
    }
    return "unknown";
}

ArrivalKind
arrivalKindFromName(const std::string &name)
{
    if (name == "steady")
        return ArrivalKind::Steady;
    if (name == "diurnal")
        return ArrivalKind::Diurnal;
    if (name == "mmpp")
        return ArrivalKind::Mmpp;
    if (name == "flash" || name == "flashcrowd")
        return ArrivalKind::FlashCrowd;
    throw ConfigError("unknown arrival kind: " + name);
}

void
ArrivalConfig::validate() const
{
    if (baseRatePerSec <= 0.0)
        throw ConfigError("arrivals: baseRatePerSec must be positive");
    if (diurnalPeriod <= Seconds{0.0})
        throw ConfigError("arrivals: diurnalPeriod must be positive");
    if (diurnalAmplitude < 0.0 || diurnalAmplitude > 1.0)
        throw ConfigError("arrivals: diurnalAmplitude out of [0, 1]");
    if (burstMultiplier < 1.0)
        throw ConfigError("arrivals: burstMultiplier must be >= 1");
    if (calmMeanDuration <= Seconds{0.0} ||
        burstMeanDuration <= Seconds{0.0})
        throw ConfigError("arrivals: MMPP holding times must be positive");
    if (flashStart < Seconds{0.0})
        throw ConfigError("arrivals: flashStart must be non-negative");
    if (flashRise < Seconds{0.0} || flashHold < Seconds{0.0} ||
        flashDecay < Seconds{0.0})
        throw ConfigError("arrivals: flash phase durations must be "
                          "non-negative");
    if (flashMultiplier < 1.0)
        throw ConfigError("arrivals: flashMultiplier must be >= 1");
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config)
    : config_(config), rng_(config.seed, 0xA221u)
{
    config_.validate();
}

void
ArrivalProcess::reset()
{
    rng_.reseed(config_.seed, 0xA221u);
    bursting_ = false;
    stateUntil_ = Seconds{0.0};
    stateDrawn_ = false;
    totalDrawn_ = 0;
}

double
ArrivalProcess::shapeMultiplier(Seconds t) const
{
    switch (config_.kind) {
    case ArrivalKind::Steady:
    case ArrivalKind::Mmpp:
        return 1.0;
    case ArrivalKind::Diurnal: {
        const double period = config_.diurnalPeriod.value();
        double phase = std::fmod(t.value(), period) / period;
        if (phase < 0.0)
            phase += 1.0;
        // Raised cosine: trough at phase 0, peak mid-period.
        return 1.0 - config_.diurnalAmplitude *
                         std::cos(2.0 * M_PI * phase);
    }
    case ArrivalKind::FlashCrowd: {
        const double peak = config_.flashMultiplier;
        const Seconds riseEnd = config_.flashStart + config_.flashRise;
        const Seconds holdEnd = riseEnd + config_.flashHold;
        const Seconds decayEnd = holdEnd + config_.flashDecay;
        if (t < config_.flashStart || t >= decayEnd)
            return 1.0;
        if (t < riseEnd) {
            const double frac = config_.flashRise > Seconds{0.0}
                ? (t - config_.flashStart) / config_.flashRise
                : 1.0;
            return 1.0 + (peak - 1.0) * frac;
        }
        if (t < holdEnd)
            return peak;
        const double frac = config_.flashDecay > Seconds{0.0}
            ? (t - holdEnd) / config_.flashDecay
            : 1.0;
        return peak - (peak - 1.0) * frac;
    }
    }
    return 1.0;
}

double
ArrivalProcess::rate(Seconds t) const
{
    if (config_.kind == ArrivalKind::Mmpp) {
        return config_.baseRatePerSec *
               (bursting_ ? config_.burstMultiplier : 1.0);
    }
    return config_.baseRatePerSec * shapeMultiplier(t);
}

uint64_t
ArrivalProcess::draw(Seconds t, Seconds dt)
{
    panicIf(dt <= Seconds{0.0}, "arrival step needs a positive dt");
    double mean = 0.0;
    if (config_.kind == ArrivalKind::Mmpp) {
        // Walk the modulation states crossed by [t, t+dt); the step's
        // mean is the state-weighted integral of the rate.
        if (!stateDrawn_) {
            stateDrawn_ = true;
            stateUntil_ = t + Seconds{rng_.exponential(
                                  1.0 / config_.calmMeanDuration.value())};
        }
        Seconds cursor = t;
        const Seconds end = t + dt;
        while (cursor < end) {
            const Seconds sliceEnd = std::min(end, stateUntil_);
            const double multiplier =
                bursting_ ? config_.burstMultiplier : 1.0;
            if (sliceEnd > cursor) {
                mean += config_.baseRatePerSec * multiplier *
                        (sliceEnd - cursor).value();
            }
            cursor = sliceEnd;
            if (cursor >= stateUntil_) {
                bursting_ = !bursting_;
                const Seconds hold = bursting_
                                         ? config_.burstMeanDuration
                                         : config_.calmMeanDuration;
                stateUntil_ = cursor +
                              Seconds{rng_.exponential(1.0 / hold.value())};
            }
        }
    } else {
        // Midpoint rule over a piecewise-smooth rate curve; the step
        // (one control quantum) is far shorter than any shape feature.
        mean = config_.baseRatePerSec *
               shapeMultiplier(t + dt * 0.5) * dt.value();
    }
    const uint64_t count = uint64_t(std::max(0, rng_.poisson(mean)));
    totalDrawn_ += count;
    return count;
}

} // namespace agsim::workload
