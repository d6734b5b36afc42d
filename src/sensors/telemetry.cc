#include "sensors/telemetry.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace agsim::sensors {

Telemetry::Telemetry(size_t coreCount, const TelemetryParams &params)
    : params_(params), coreCount_(coreCount)
{
    fatalIf(coreCount_ == 0, "telemetry needs at least one core");
    fatalIf(params_.windowLength <= Seconds{0.0},
            "telemetry window must be positive");
}

Telemetry::State
Telemetry::initialState() const
{
    State state;
    state.lastSample.assign(coreCount_, 0);
    state.stickyMin.assign(coreCount_, std::numeric_limits<int>::max());
    state.voltageSum.assign(coreCount_, Mul<Volts, Seconds>{});
    state.frequencySum.assign(coreCount_, 0.0);
    return state;
}

void
Telemetry::step(State &state, const StepObservation &obs, Seconds dt)
{
    panicIf(obs.sampleCpm.size() != coreCount_ ||
            obs.stickyCpm.size() != coreCount_ ||
            obs.coreVoltage.size() != coreCount_ ||
            obs.coreFrequency.size() != coreCount_,
            "telemetry observation size mismatch");
    panicIf(dt <= Seconds{0.0}, "telemetry step must be positive");

    state.now += dt;
    state.windowElapsed += dt;
    state.weightSum += dt;

    for (size_t core = 0; core < coreCount_; ++core) {
        state.lastSample[core] = obs.sampleCpm[core];
        state.stickyMin[core] =
            std::min(state.stickyMin[core], obs.stickyCpm[core]);
        state.voltageSum[core] += obs.coreVoltage[core] * dt;
        state.frequencySum[core] += obs.coreFrequency[core] * dt;
    }
    state.powerSum += obs.chipPower * dt;
    state.currentSum += obs.railCurrent * dt;
    state.setpointSum += obs.setpoint * dt;
    state.decompositionSum =
        state.decompositionSum + obs.decomposition.scaled(dt.value());
    state.emergencySum += obs.timingEmergencies;
    state.demotionSum += obs.safetyDemotions;
    state.rearmSum += obs.safetyRearms;
    if (!state.marginSeen || obs.worstMargin < state.marginMin) {
        state.marginMin = obs.worstMargin;
        state.marginSeen = true;
    }

    // Close as many windows as the elapsed time covers (dt is normally
    // much smaller than the window, so at most one).
    while (state.windowElapsed >= params_.windowLength - Seconds{1e-12}) {
        closeWindow(state);
        state.windowElapsed -= params_.windowLength;
    }
}

void
Telemetry::closeWindow(State &state)
{
    TelemetryWindow window;
    window.time = state.now;
    window.sampleCpm = state.lastSample;
    window.stickyCpm = state.stickyMin;
    window.meanCoreVoltage.resize(coreCount_);
    window.meanCoreFrequency.resize(coreCount_);
    const Seconds w =
        state.weightSum > Seconds{} ? state.weightSum : Seconds{1.0};
    for (size_t core = 0; core < coreCount_; ++core) {
        window.meanCoreVoltage[core] = state.voltageSum[core] / w;
        window.meanCoreFrequency[core] =
            Hertz{state.frequencySum[core] / w.value()};
    }
    window.meanChipPower = state.powerSum / w;
    window.meanRailCurrent = state.currentSum / w;
    window.meanSetpoint = state.setpointSum / w;
    window.meanDecomposition =
        state.decompositionSum.scaled(1.0 / w.value());
    window.emergencyCount = state.emergencySum;
    window.demotionCount = state.demotionSum;
    window.rearmCount = state.rearmSum;
    window.worstMargin = state.marginSeen ? state.marginMin : Volts{};
    windows_.push_back(std::move(window));
    if (params_.maxWindows > 0 && windows_.size() > params_.maxWindows)
        windows_.erase(windows_.begin());

    // Reset in-progress accumulation.
    state.stickyMin.assign(coreCount_, std::numeric_limits<int>::max());
    state.voltageSum.assign(coreCount_, Mul<Volts, Seconds>{});
    state.frequencySum.assign(coreCount_, 0.0);
    state.powerSum = Joules{};
    state.currentSum = Mul<Amps, Seconds>{};
    state.setpointSum = Mul<Volts, Seconds>{};
    state.decompositionSum = pdn::DropDecomposition();
    state.weightSum = Seconds{};
    state.emergencySum = 0;
    state.demotionSum = 0;
    state.rearmSum = 0;
    state.marginMin = Volts{0.0};
    state.marginSeen = false;
}

const TelemetryWindow &
Telemetry::latest() const
{
    fatalIf(windows_.empty(), "no telemetry windows completed yet");
    return windows_.back();
}

void
Telemetry::clearWindows()
{
    windows_.clear();
}

} // namespace agsim::sensors
