#include "clock/droop_response.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "obs/observability.h"

namespace agsim::clock {

namespace {

/** Droop waveform voltage at time t past onset. */
Volts
waveformAt(Volts preVoltage, const DroopEvent &event, Seconds t)
{
    if (t < event.onsetTime) {
        // Current surge phase: the voltage ramps to the trough.
        return preVoltage - event.depth * (t / event.onsetTime);
    }
    const Seconds past = t - event.onsetTime;
    Volts v = preVoltage -
               event.depth * std::exp(-past / event.recoveryTau);
    if (event.ringFraction > 0.0) {
        // Damped resonance ring, trough-aligned at the sag bottom.
        const Volts ring = event.ringFraction * event.depth *
                            std::exp(-past / event.ringTau) *
                            std::cos(2.0 * M_PI * past /
                                     event.ringPeriod);
        v -= ring;
    }
    return v;
}

} // namespace

DroopOutcome
simulateDroop(const power::VfCurve &curve, const DpllParams &dpll,
              bool adaptive, Volts preVoltage, Hertz clockFrequency,
              const DroopEvent &event, const DroopSimParams &sim)
{
    fatalIf(sim.dt <= Seconds{0.0} || sim.duration <= Seconds{0.0},
            "droop simulation needs positive times");
    fatalIf(event.depth < Volts{0.0}, "negative droop depth");
    fatalIf(event.onsetTime <= Seconds{0.0}, "onset time must be positive");
    fatalIf(event.recoveryTau <= Seconds{0.0}, "recovery tau must be positive");
    fatalIf(preVoltage <= Volts{0.0} || clockFrequency <= Hertz{0.0},
            "droop simulation needs a positive operating point");

    DroopOutcome outcome;
    outcome.minMargin = curve.marginAt(preVoltage, clockFrequency);

    const Dpll loop(&curve, dpll);
    Dpll::State core{clockFrequency};
    const size_t steps = size_t(sim.duration / sim.dt);
    outcome.trace.reserve(steps);

    double expectedCycles = 0.0;
    double actualCycles = 0.0;
    for (size_t i = 0; i < steps; ++i) {
        DroopSample sample;
        sample.t = double(i) * sim.dt;
        sample.voltage = waveformAt(preVoltage, event, sample.t);
        sample.fmax = curve.fmaxAt(sample.voltage);
        sample.clockFrequency =
            adaptive ? loop.step(core, sample.voltage, sim.dt)
                     : clockFrequency;
        sample.violation = sample.clockFrequency > sample.fmax + Hertz{1.0};
        outcome.violated = outcome.violated || sample.violation;
        outcome.minMargin = std::min(
            outcome.minMargin,
            curve.marginAt(sample.voltage, sample.clockFrequency));
        expectedCycles += clockFrequency * sim.dt;
        actualCycles += sample.clockFrequency * sim.dt;
        outcome.trace.push_back(sample);
    }
    outcome.lostCycles = std::max(expectedCycles - actualCycles, 0.0);
    outcome.lostTime = outcome.lostCycles / clockFrequency;

    // Registered once per process (thread-safe static init); each
    // fine-grained event simulation is far off the engine's hot path.
    static obs::Counter &sims = obs::registry().counter("clock.droop_sims");
    static obs::Counter &violations =
        obs::registry().counter("clock.droop_sim_violations");
    sims.add();
    if (outcome.violated)
        violations.add();
    return outcome;
}

Volts
staticGuardbandNeeded(Volts preVoltage, const DroopEvent &event,
                      const DroopSimParams &sim)
{
    // A fixed-frequency design survives iff the deepest excursion stays
    // at or above vmin(f): it must provision margin equal to the worst
    // excursion below the pre-event voltage.
    Volts deepest = preVoltage;
    const size_t steps = size_t(sim.duration / sim.dt);
    for (size_t i = 0; i < steps; ++i)
        deepest = std::min(deepest,
                           waveformAt(preVoltage, event,
                                      double(i) * sim.dt));
    return preVoltage - deepest;
}

} // namespace agsim::clock
