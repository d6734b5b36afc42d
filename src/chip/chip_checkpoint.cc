/**
 * @file
 * Chip::checkpoint / Chip::restoreCheckpoint — see chip_checkpoint.h
 * for what is captured and why. Kept out of chip.cc so the hot step
 * path and the (cold) checkpoint path do not share a compilation unit.
 */

#include "chip/chip_checkpoint.h"

#include "chip/chip.h"
#include "common/error.h"

namespace agsim::chip {

ChipCheckpoint
Chip::checkpoint() const
{
    const size_t n = config_.coreCount;
    ChipCheckpoint cp;

    cp.seed = config_.seed;
    cp.coreCount = n;
    cp.mode = config_.mode;
    cp.commandedMode = demotedFrom_;
    cp.targetFrequency = config_.targetFrequency;

    cp.state = state_;

    cp.loads = loads_;
    cp.decomposition = decomposition_;

    cp.temperature = thermal_.temperature();
    cp.didtRng = didt_.rngState();
    cp.safety = safety_.snapshot();
    cp.telemetry = telemetry_.snapshot();
    cp.dpllFrequency.resize(n);
    cp.dpllCap.resize(n);
    for (size_t i = 0; i < n; ++i) {
        cp.dpllFrequency[i] = dplls_[i].frequency();
        cp.dpllCap[i] = dplls_[i].cap();
    }
    cp.railSetpoint = vrm_->setpoint(config_.railIndex);
    cp.railLastCurrent = vrm_->sensedCurrent(config_.railIndex);

    cp.lastEmergencies = lastEmergencies_;
    cp.lastDemotions = lastDemotions_;
    cp.lastRearms = lastRearms_;
    cp.missedFirmwareTicks = missedFirmwareTicks_;
    cp.hadInjector = faultInjector_ != nullptr;
    cp.faultClock = faultInjector_ != nullptr ? faultInjector_->now()
                                              : Seconds{0.0};
    cp.lastFaultActive = lastFaultActive_;
    return cp;
}

void
Chip::restoreCheckpoint(const ChipCheckpoint &cp)
{
    const size_t n = config_.coreCount;
    fatalIf(cp.coreCount != n,
            "chip checkpoint core count does not match this chip");
    fatalIf(cp.seed != config_.seed,
            "chip checkpoint seed does not match this chip (a restored "
            "chip must replay the same stochastic streams)");
    fatalIf(cp.state.coreVoltage.size() != n ||
                cp.state.coreCtrlVoltage.size() != n ||
                cp.state.coreCurrent.size() != n ||
                cp.state.droopStall.size() != n || cp.loads.size() != n ||
                cp.decomposition.size() != n || cp.dpllFrequency.size() != n ||
                cp.dpllCap.size() != n,
            "chip checkpoint per-core sizes do not match the core count");

    // Mode/target state is restored directly rather than through
    // setMode()/applyMode(): those reprogram the VRM and reset the
    // safety monitor, while here every downstream value is restored
    // explicitly below.
    config_.mode = cp.mode;
    demotedFrom_ = cp.commandedMode;
    config_.targetFrequency = cp.targetFrequency;

    state_ = cp.state;
    loads_ = cp.loads;
    decomposition_ = cp.decomposition;

    thermal_.restoreTemperature(cp.temperature);
    didt_.restoreRngState(cp.didtRng);
    safety_.restore(cp.safety);
    telemetry_.restore(cp.telemetry);
    for (size_t i = 0; i < n; ++i) {
        dplls_[i].lockTo(cp.dpllFrequency[i]);
        dplls_[i].setCap(cp.dpllCap[i]);
    }
    vrm_->restoreRail(config_.railIndex, cp.railSetpoint,
                      cp.railLastCurrent);

    lastEmergencies_ = cp.lastEmergencies;
    lastDemotions_ = cp.lastDemotions;
    lastRearms_ = cp.lastRearms;
    missedFirmwareTicks_ = cp.missedFirmwareTicks;

    // Mid-step sense-phase outputs are never checkpointed (checkpoints
    // are taken between steps); clear them so a half-stepped chip
    // cannot leak state across a restore.
    pendingNoise_ = pdn::DidtSample{};
    pendingWorstCharacteristic_ = Volts{0.0};

    // Fault state: the rail restore above cleared injected VRM faults,
    // so either re-apply the attached injector's active set at the
    // restored clock or scrub the sensor models too.
    if (faultInjector_ != nullptr) {
        if (cp.hadInjector)
            faultInjector_->restoreClock(cp.faultClock);
        else
            faultInjector_->reset();
        applyFaults();
        lastFaultActive_ = faultInjector_->active().any;
    } else {
        cpms_.clearFaults();
        lastFaultActive_ = false;
    }

    // The epoch bump is what keeps sampled fleet stepping honest: any
    // phase detector watching this chip sees the transient and drops
    // back to exact stepping instead of fast-forwarding across the
    // restore edge.
    ++stateEpoch_;
}

} // namespace agsim::chip
