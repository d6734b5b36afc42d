#include "chip/chip.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.h"
#include "obs/observability.h"
#include "obs/scoped_timer.h"

namespace agsim::chip {

namespace {

/** Chip-level trace event skeleton (caller fills kind/args). */
obs::TraceEvent
chipEvent(obs::TraceKind kind, Seconds simTime, size_t railIndex)
{
    obs::TraceEvent event;
    event.kind = kind;
    event.simTime = simTime;
    event.chip = int32_t(railIndex);
    return event;
}

} // namespace

Chip::Chip(const ChipConfig &config, pdn::Vrm *vrm)
    : config_(config), vrm_(vrm), curve_(config.vf),
      powerModel_(config.power), thermal_(config.thermal),
      irModel_([&config] {
          pdn::IrDropParams ir = config.ir;
          ir.coreCount = config.coreCount;
          return ir;
      }()),
      didt_(config.didt),
      cpms_(&curve_, config.cpm, config.coreCount, config.seed,
            config.cpmsPerCore),
      telemetry_(config.coreCount, config.telemetry),
      undervoltCtl_(config.undervolt), dpll_(&curve_, config.dpll),
      safety_(config.safety),
      droopHistogram_(0.0, config.droopHistogramMax.value(),
                      config.droopHistogramBins)
{
    config_.validate();
    fatalIf(vrm_ == nullptr, "chip needs a VRM");
    fatalIf(config_.railIndex >= vrm_->railCount(),
            "chip rail index out of range for the VRM");

    const size_t n = config_.coreCount;
    state_.mode = config_.mode;
    state_.commandedMode = config_.mode;
    state_.targetFrequency = config_.targetFrequency;
    state_.temperature = thermal_.ambient();
    const Volts v0 = curve_.vddStatic(config_.targetFrequency);
    state_.loads.assign(n, CoreLoad::idle());
    state_.decomposition.assign(n, pdn::DropDecomposition());
    state_.coreVoltage.assign(n, v0);
    state_.coreCtrlVoltage.assign(n, v0);
    state_.coreCurrent.assign(n, Amps{});
    state_.droopStall.assign(n, Seconds{});
    state_.dpll.assign(n, clock::Dpll::State{config_.targetFrequency});
    state_.didtRng = Rng(config_.seed, 0xD1D7ull);
    state_.telemetry = telemetry_.initialState();

    scratchTypAmps_.assign(config_.coreCount, Volts{});
    scratchWorstAmps_.assign(config_.coreCount, Volts{});
    scratchLocalDrop_.assign(config_.coreCount, Volts{});
    scratchObs_.sampleCpm.assign(config_.coreCount, 0);
    scratchObs_.stickyCpm.assign(config_.coreCount, 0);
    scratchObs_.coreVoltage.assign(config_.coreCount, Volts{});
    scratchObs_.coreFrequency.assign(config_.coreCount, Hertz{});

    registerMetrics();
    setMode(config_.mode);
}

void
Chip::registerMetrics()
{
    // One registration per construction (string lookups are off the hot
    // path); identical chips across parallel batch tasks share cells,
    // so the registry aggregates fleet-wide totals per socket.
    obs::MetricRegistry &reg = obs::registry();
    const obs::MetricLabels labels{
        {"socket", std::to_string(config_.railIndex)}};
    obsSteps_ = &reg.counter("chip.steps", labels);
    obsFirmwareTicks_ = &reg.counter("chip.firmware.ticks", labels);
    obsMissedTicks_ = &reg.counter("chip.firmware.missed_ticks", labels);
    obsModeTransitions_ = &reg.counter("chip.mode.transitions", labels);
    obsDemotions_ = &reg.counter("chip.safety.demotions", labels);
    obsRearms_ = &reg.counter("chip.safety.rearms", labels);
    obsEmergencies_ = &reg.counter("chip.safety.emergencies", labels);
    obsDroopResponses_ = &reg.counter("chip.droop.responses", labels);
    obsSolverTimer_ = reg.timer("chip.step.solver", labels);
    obsFirmwareTimer_ = reg.timer("chip.step.firmware", labels);
    obsTelemetryTimer_ = reg.timer("chip.step.telemetry", labels);
}

void
Chip::setLoad(size_t core, const CoreLoad &load)
{
    panicIf(core >= config_.coreCount, "core index out of range");
    fatalIf(load.gated && load.active, "a gated core cannot be active");
    fatalIf(load.active && load.activity <= 0.0,
            "active core needs positive activity");
    state_.loads[core] = load;
    ++stateEpoch_;
}

void
Chip::clearLoads()
{
    state_.loads.assign(config_.coreCount, CoreLoad::idle());
    ++stateEpoch_;
}

const CoreLoad &
Chip::load(size_t core) const
{
    panicIf(core >= config_.coreCount, "core index out of range");
    return state_.loads[core];
}

void
Chip::setMode(GuardbandMode mode)
{
    // An explicit operator command overrides the safety monitor's
    // memory: the watchdog re-arms fresh for the new mode.
    applyMode(mode);
    state_.commandedMode = mode;
    state_.safety = SafetyMonitor::State{};
    state_.latchedDroopDepth = Volts{0.0};
}

void
Chip::applyMode(GuardbandMode mode)
{
    const GuardbandMode previous = state_.mode;
    obsModeTransitions_->add();
    if (obs::tracingEnabled()) {
        obs::TraceEvent event = chipEvent(obs::TraceKind::ModeTransition,
                                          simTime(), config_.railIndex);
        event.a = double(previous);
        event.b = double(mode);
        event.detail = std::string(guardbandModeName(previous)) + "->" +
                       guardbandModeName(mode);
        obs::emit(std::move(event));
    }
    state_.mode = mode;
    const Hertz target = state_.targetFrequency;
    state_.staticSetpoint = curve_.vddStatic(target);
    vrm_->setSetpoint(config_.railIndex, state_.staticSetpoint);
    state_.sinceFirmware = Seconds{};
    for (clock::Dpll::State &core : state_.dpll) {
        dpll_.lockTo(core, target);
        core.cap = mode == GuardbandMode::AdaptiveUndervolt ? target
                                                            : Hertz{};
    }
    ++stateEpoch_;
}

void
Chip::setTargetFrequency(Hertz f)
{
    fatalIf(f <= Hertz{0.0}, "target frequency must be positive");
    fatalIf(f > curve_.params().refFrequency,
            "target frequency above the DVFS range");
    state_.targetFrequency = f;
    setMode(state_.mode);
}

void
Chip::forceSetpoint(Volts v)
{
    fatalIf(state_.mode != GuardbandMode::Disabled,
            "forceSetpoint is only legal in Disabled mode");
    vrm_->setSetpoint(config_.railIndex, v);
    ++stateEpoch_;
}

Volts
Chip::setpoint() const
{
    return vrm_->setpoint(config_.railIndex);
}

Volts
Chip::staticSetpoint() const
{
    // Cached at setMode()/setTargetFrequency(); the firmware reads this
    // every decision, so it must not recompute the curve each call.
    return state_.staticSetpoint;
}

Volts
Chip::undervoltAmount() const
{
    return staticSetpoint() - setpoint();
}

void
Chip::solveElectrical()
{
    const size_t n = config_.coreCount;
    // Leakage's temperature factor is the same for every core, the
    // uncore and every iteration: one exp2 per solve.
    const double leakTemp =
        powerModel_.leakageTemperatureFactor(state_.temperature);
    Volts *const cv = state_.coreVoltage.data();
    Amps *const cc = state_.coreCurrent.data();
    Amps &railCurrent = state_.railCurrent;
    Volts railVoltage = vrm_->outputAt(config_.railIndex, railCurrent);

    for (int iter = 0; iter < config_.fixedPointIterations; ++iter) {
        const Volts previousRailVoltage = railVoltage;
        Watts total;
        for (size_t i = 0; i < n; ++i) {
            const CoreLoad &load = state_.loads[i];
            Watts p;
            if (load.gated) {
                p = powerModel_.coreLeakage(railVoltage, leakTemp, true);
            } else {
                const double activity = load.active
                                            ? load.activity
                                            : powerModel_.idleActivity();
                const Hertz f = state_.dpll[i].frequency;
                p = powerModel_.coreDynamic(cv[i], f, activity) +
                    powerModel_.coreLeakage(cv[i], leakTemp, false);
            }
            cc[i] = p / std::max(railVoltage, Volts{0.5});
            total += p;
        }
        total += powerModel_.uncore(railVoltage, leakTemp);

        railCurrent = total / std::max(railVoltage, Volts{0.5});
        railVoltage = vrm_->outputAt(config_.railIndex, railCurrent);
        // One matrix sweep yields every core's local drop for this
        // iteration (the voltage update below and the dissipation sum
        // consume the same values); the global component is shared by
        // all cores.
        irModel_.localDropInto(state_.coreCurrent, scratchLocalDrop_);
        const Volts globalDrop = irModel_.globalDrop(railCurrent);
        const Volts vAfterGlobal = railVoltage - globalDrop;
        for (size_t i = 0; i < n; ++i)
            cv[i] = vAfterGlobal - scratchLocalDrop_[i];

        // The Vdd-rail power sensor sits at the VRM, so the series
        // dissipation in the loadline and the PDN grid (I^2 R) is part
        // of measured chip power. Concentrating current through one
        // socket's loadline quadratically inflates this term — one of
        // the effects loadline borrowing reclaims (Sec. 5.1).
        Watts dissipation = vrm_->railParams(config_.railIndex)
                                .loadlineResistance *
                            railCurrent * railCurrent;
        dissipation += globalDrop * railCurrent;
        for (size_t i = 0; i < n; ++i)
            dissipation += scratchLocalDrop_[i] * cc[i];
        state_.chipPower = total + dissipation;

        // The V<->P fixed point usually converges in 1-2 iterations in
        // steady state: stop once the rail voltage has stopped moving.
        if (config_.solverTolerance > Volts{0.0} &&
            agsim::abs(railVoltage - previousRailVoltage) <
                config_.solverTolerance) {
            break;
        }
    }
    vrm_->deliver(config_.railIndex, railCurrent);
}

void
Chip::runFirmware()
{
    if (state_.mode != GuardbandMode::AdaptiveUndervolt)
        return;
    // The firmware watches the worst (slowest) non-gated core: the chip
    // shares one Vdd rail, so the neediest core dictates the voltage
    // (the global effect of Sec. 4.2).
    Hertz achievable = curve_.params().refFrequency *
                       curve_.params().overclockCeiling;
    bool anyOn = false;
    const Volts *const ctrl = state_.coreCtrlVoltage.data();
    for (size_t i = 0; i < config_.coreCount; ++i) {
        if (state_.loads[i].gated)
            continue;
        anyOn = true;
        // The firmware sees what the core's CPMs report: the residual
        // calibration error — and any injected sensor fault — biases
        // its view of the margin.
        const Volts seen = cpms_.bank(i).controlVoltage(
            ctrl[i], state_.targetFrequency);
        achievable = std::min(achievable, curve_.fmaxWithMargin(seen));
    }
    if (!anyOn)
        return;
    const Volts next = undervoltCtl_.decide(setpoint(), achievable,
                                            state_.targetFrequency,
                                            staticSetpoint());
    vrm_->setSetpoint(config_.railIndex, next);
}

void
Chip::fillDidtAmps(double droopDepthScale)
{
    const size_t n = config_.coreCount;
    for (size_t i = 0; i < n; ++i) {
        const CoreLoad &load = state_.loads[i];
        if (load.active) {
            scratchTypAmps_[i] = load.didtTypicalAmp;
            scratchWorstAmps_[i] = load.didtWorstAmp * droopDepthScale;
        } else {
            scratchTypAmps_[i] = Volts{};
            scratchWorstAmps_[i] = Volts{};
        }
    }
}

void
Chip::stepSensePhase(Seconds dt)
{
    panicIf(dt <= Seconds{0.0}, "chip step must be positive");

    obsSteps_->add();

    // Faults first: the injected state must be in place before any
    // model is consulted this step.
    if (faultInjector_ != nullptr) {
        faultInjector_->advance(dt);
        applyFaults();
        const bool faultActive = faultInjector_->active().any;
        if (faultActive != state_.lastFaultActive) {
            state_.lastFaultActive = faultActive;
            if (obs::tracingEnabled()) {
                obs::TraceEvent event = chipEvent(
                    obs::TraceKind::FaultChange, simTime(),
                    config_.railIndex);
                event.a = double(faultInjector_->activeSpecCount());
                event.detail = faultActive ? "activated" : "cleared";
                obs::emit(std::move(event));
            }
        }
    }

    thermal_.step(state_.temperature, state_.chipPower, dt);
    {
        obs::ScopedTimer timer(obsSolverTimer_);
        solveElectrical();
    }

    // Per-step di/dt noise from the cores' workload signatures. The
    // amplitude vectors are preallocated members: step() must stay
    // allocation-free in steady state. Droop storms scale the depth
    // through the amplitudes and the arrival rate through the model.
    double droopRateScale = 1.0;
    double droopDepthScale = 1.0;
    if (faultInjector_ != nullptr && faultInjector_->active().any) {
        droopRateScale = faultInjector_->active().droopRateScale;
        droopDepthScale = faultInjector_->active().droopDepthScale;
    }
    fillDidtAmps(droopDepthScale);
    pendingNoise_ = didt_.step(state_.didtRng, scratchTypAmps_,
                               scratchWorstAmps_, dt, droopRateScale);
    pendingWorstCharacteristic_ = didt_.worstDepth(scratchWorstAmps_);
    if (pendingNoise_.droopEvents > 0) {
        droopHistogram_.add(pendingNoise_.worstDroop.value());
        if (pendingNoise_.worstDroop > state_.latchedDroopDepth)
            state_.latchedDroopDepth = pendingNoise_.worstDroop;
    }

    // Vcs (storage) rail: a lightly activity-dependent constant load,
    // reported separately from the Vdd metric the paper uses.
    const double activeFraction = double(activeCoreCount()) /
                                  double(config_.coreCount);
    state_.vcsPower = config_.vcs.powerAtRef *
                      (1.0 - config_.vcs.activityShare +
                       config_.vcs.activityShare * activeFraction);
}

void
Chip::stepControlPhase(Seconds dt)
{
    const size_t n = config_.coreCount;
    const pdn::DidtSample &noise = pendingNoise_;
    Volts *const cv = state_.coreVoltage.data();
    Volts *const ctrl = state_.coreCtrlVoltage.data();
    Seconds *const stall = state_.droopStall.data();
    pdn::DropDecomposition *const decomposition =
        state_.decomposition.data();
    const Hertz target = state_.targetFrequency;
    const Amps railCurrent = state_.railCurrent;
    const Volts railVoltage = vrm_->outputAt(config_.railIndex,
                                             railCurrent);
    // Loop-invariant drop components; the per-core local drops are the
    // ones the solver's final iteration left in scratchLocalDrop_ (the
    // core currents have not changed since).
    const Volts loadlineDrop = vrm_->loadlineDrop(config_.railIndex);
    const Volts globalDrop = irModel_.globalDrop(railCurrent);
    // Reuse the preallocated observation; every entry is overwritten
    // below (both the gated and the running branch fill all four
    // per-core arrays).
    sensors::StepObservation &obs = scratchObs_;

    for (size_t i = 0; i < n; ++i) {
        ctrl[i] = cv[i] - config_.rippleTrackingLoss * noise.typicalMean;
        stall[i] = Seconds{};

        if (state_.loads[i].gated) {
            // A gated core's CPMs are dark; AMESTER reports the detector
            // pegged high (no load, no clock).
            obs.sampleCpm[i] = config_.cpm.positions - 1;
            obs.stickyCpm[i] = config_.cpm.positions - 1;
            obs.coreVoltage[i] = railVoltage;
            obs.coreFrequency[i] = Hertz{};
            decomposition[i] = pdn::DropDecomposition();
            decomposition[i].loadline = loadlineDrop;
            decomposition[i].irGlobal = globalDrop;
            continue;
        }

        // The control path reads at the DVFS target, and so does the
        // sensing path whenever the DPLL runs there.
        sensors::CpmBank &bank = cpms_.bank(i);
        bank.memoize(target);
        clock::Dpll::State &core = state_.dpll[i];
        switch (state_.mode) {
          case GuardbandMode::StaticGuardband:
          case GuardbandMode::Disabled:
            dpll_.lockTo(core, target);
            break;
          case GuardbandMode::AdaptiveOverclock:
          case GuardbandMode::AdaptiveUndervolt:
            // The DPLL follows its core's worst CPM, so the residual
            // calibration error — and any injected sensor fault —
            // tilts the margin it preserves.
            dpll_.step(core, bank.controlVoltage(ctrl[i], target), dt);
            stall[i] = dpll_.droopStall(core.frequency, noise.worstDroop,
                                        noise.droopEvents);
            break;
        }

        const Hertz f = core.frequency;
        const Volts vInstant = cv[i] - noise.typicalNow;
        const Volts vSticky = cv[i] -
            std::max(noise.typicalNow, noise.worstDroop);
        obs.sampleCpm[i] = bank.minRead(vInstant, f);
        // On droop-free steps (the overwhelming majority) the sticky
        // read sees the same voltage as the sampled read — reuse it.
        obs.stickyCpm[i] = vSticky == vInstant
                               ? obs.sampleCpm[i]
                               : bank.minRead(vSticky, f);
        obs.coreVoltage[i] = cv[i];
        obs.coreFrequency[i] = f;

        decomposition[i].loadline = loadlineDrop;
        decomposition[i].irGlobal = globalDrop;
        decomposition[i].irLocal = scratchLocalDrop_[i];
        decomposition[i].typicalDidt = noise.typicalMean;
        decomposition[i].worstDidt = pendingWorstCharacteristic_;
    }

    // Droop-response accounting: every core whose DPLL rode through a
    // worst-case event this step stalled briefly; the count always
    // lands in the registry, the per-core events only when tracing.
    int stalledCores = 0;
    for (size_t i = 0; i < n; ++i) {
        if (stall[i] <= Seconds{})
            continue;
        ++stalledCores;
        if (obs::tracingEnabled()) {
            obs::TraceEvent event = chipEvent(obs::TraceKind::DroopResponse,
                                              simTime(), config_.railIndex);
            event.core = int32_t(i);
            event.a = stall[i].value();
            event.b = noise.worstDroop.value();
            obs::emit(std::move(event));
        }
    }
    if (stalledCores > 0)
        obsDroopResponses_->add(stalledCores);
}

void
Chip::stepCommitPhase(Seconds dt)
{
    // Watchdog: count emergencies against the true (model ground-truth)
    // margin and let the monitor demote/re-arm. Runs before telemetry so
    // the step's counters land in the current window.
    runSafetyMonitor(pendingNoise_, pendingWorstCharacteristic_, dt);

    sensors::StepObservation &obs = scratchObs_;
    obs.chipPower = state_.chipPower;
    obs.railCurrent = state_.railCurrent;
    obs.setpoint = setpoint();
    obs.decomposition = state_.decomposition[0];
    obs.timingEmergencies = state_.lastEmergencies;
    obs.safetyDemotions = state_.lastDemotions;
    obs.safetyRearms = state_.lastRearms;
    obs.worstMargin = state_.lastWorstMargin;
    {
        obs::ScopedTimer timer(obsTelemetryTimer_);
        telemetry_.step(state_.telemetry, obs, dt);
    }

    Seconds &sinceFirmware = state_.sinceFirmware;
    sinceFirmware += dt;
    if (sinceFirmware >= config_.firmwareInterval - Seconds{1e-12}) {
        firmwareTick();
        // Carry the overshoot past the interval instead of discarding
        // it, so the firmware cadence stays exactly firmwareInterval on
        // average for any dt (a 1 ms step no longer stretches the 32 ms
        // cadence when the interval is not a multiple of dt).
        sinceFirmware -= config_.firmwareInterval;
        // The trigger's 1e-12 grace can leave the remainder a few ulps
        // below zero when dt divides the interval exactly.
        if (sinceFirmware < Seconds{0.0})
            sinceFirmware = Seconds{};
    }

    // Events inside this step were stamped with its start time; the
    // clock advances last.
    state_.simNow += dt;
}

void
Chip::firmwareTick()
{
    obs::ScopedTimer timer(obsFirmwareTimer_);
    const Volts setpointBefore = setpoint();
    bool stalled = false;
    // An injected stall makes the service processor miss this
    // decision entirely; the loop coasts on the last setpoint.
    if (faultInjector_ != nullptr &&
        faultInjector_->active().firmwareStall) {
        ++state_.missedFirmwareTicks;
        obsMissedTicks_->add();
        stalled = true;
    } else {
        runFirmware();
    }
    obsFirmwareTicks_->add();
    if (obs::tracingEnabled()) {
        obs::TraceEvent event = chipEvent(obs::TraceKind::FirmwareTick,
                                          simTime(), config_.railIndex);
        event.a = setpointBefore.value();
        event.b = setpoint().value();
        if (stalled)
            event.detail = "stalled";
        obs::emit(std::move(event));
    }
}

void
Chip::step(Seconds dt)
{
    stepSensePhase(dt);
    stepControlPhase(dt);
    stepCommitPhase(dt);
}

int64_t
Chip::fastForward(int64_t maxTicks, Seconds dt)
{
    panicIf(maxTicks <= 0, "fastForward needs at least one tick");
    panicIf(dt <= Seconds{0.0}, "chip step must be positive");
    const size_t n = config_.coreCount;
    const Seconds interval = config_.firmwareInterval;
    const bool adaptive =
        state_.mode == GuardbandMode::AdaptiveUndervolt ||
        state_.mode == GuardbandMode::AdaptiveOverclock;

    int64_t consumed = 0;
    while (consumed < maxTicks) {
        // Consume ticks up to (and including) the next firmware
        // boundary, so every firmware decision still happens at its
        // exact due time against the held sensor view.
        Seconds &sinceFirmware = state_.sinceFirmware;
        const double toBoundary =
            (interval - Seconds{1e-12} - sinceFirmware).value() /
            dt.value();
        int64_t k = int64_t(std::ceil(toBoundary));
        k = std::max<int64_t>(k, 1);
        k = std::min(k, maxTicks - consumed);
        const Seconds span = dt * double(k);

        // Fault clock stays aligned with simulated time; the caller
        // guarantees no plan edge falls inside the span.
        if (faultInjector_ != nullptr) {
            faultInjector_->advance(span);
            applyFaults();
        }

        // The thermal RC step composes exponentially, so one span-long
        // step is exactly k dt-long steps at the held power.
        thermal_.step(state_.temperature, state_.chipPower, span);

        // Aggregate di/dt over the span: the arrival process is
        // Poisson, so one draw with rate*span replaces k per-tick
        // draws; depth statistics come from the same seeded model.
        double droopRateScale = 1.0;
        double droopDepthScale = 1.0;
        if (faultInjector_ != nullptr && faultInjector_->active().any) {
            droopRateScale = faultInjector_->active().droopRateScale;
            droopDepthScale = faultInjector_->active().droopDepthScale;
        }
        fillDidtAmps(droopDepthScale);
        const pdn::DidtSample noise =
            didt_.step(state_.didtRng, scratchTypAmps_, scratchWorstAmps_,
                       span, droopRateScale);
        const Volts envelope = didt_.worstDepth(scratchWorstAmps_);
        if (noise.droopEvents > 0) {
            droopHistogram_.add(noise.worstDroop.value());
            if (noise.worstDroop > state_.latchedDroopDepth)
                state_.latchedDroopDepth = noise.worstDroop;
        }

        // Analytic margin over the span: the per-tick ripple jitter is
        // replaced by its mean. Unprotected cores are assessed against
        // the characterized envelope whenever the span saw a droop
        // (matching the window-minimum semantics the exact path feeds
        // telemetry), protected cores against the mean ripple.
        const Volts *const cv = state_.coreVoltage.data();
        const Volts envelopeDroop =
            noise.droopEvents > 0 ? envelope : Volts{};
        int emergencies = 0;
        Volts worst = curve_.params().staticGuardband;
        bool anyCore = false;
        for (size_t i = 0; i < n; ++i) {
            if (state_.loads[i].gated)
                continue;
            const bool loopProtects = adaptive && !cpms_.bank(i).blind();
            const Volts sag = loopProtects
                                  ? noise.typicalMean
                                  : std::max(noise.typicalMean,
                                             envelopeDroop);
            const Volts margin = (cv[i] - sag) -
                                 curve_.vminAt(state_.dpll[i].frequency);
            if (!anyCore || margin < worst)
                worst = margin;
            anyCore = true;
            if (margin < -safety_.params().marginTolerance)
                ++emergencies;
        }
        state_.lastEmergencies = emergencies;
        state_.lastWorstMargin = worst;
        state_.lastDemotions = 0;
        state_.lastRearms = 0;
        if (emergencies > 0)
            obsEmergencies_->add(emergencies);
        // One observation covering the span keeps the watchdog's
        // re-arm hysteresis clock aligned with simulated time.
        applySafetyAction(safety_.observe(state_.safety, emergencies > 0,
                                          adaptive, span),
                          emergencies);
        const bool modeChanged =
            state_.lastDemotions > 0 || state_.lastRearms > 0;

        // Telemetry: the held observation weighted by the span lands in
        // the same windows the exact path would have filled (window
        // closes are span-aware).
        sensors::StepObservation &obs = scratchObs_;
        obs.chipPower = state_.chipPower;
        obs.railCurrent = state_.railCurrent;
        obs.setpoint = setpoint();
        obs.decomposition = state_.decomposition[0];
        obs.timingEmergencies = state_.lastEmergencies;
        obs.safetyDemotions = state_.lastDemotions;
        obs.safetyRearms = state_.lastRearms;
        obs.worstMargin = worst;
        {
            obs::ScopedTimer timer(obsTelemetryTimer_);
            telemetry_.step(state_.telemetry, obs, span);
        }

        sinceFirmware += span;
        bool setpointMoved = false;
        if (sinceFirmware >= interval - Seconds{1e-12}) {
            const Volts before = setpoint();
            firmwareTick();
            sinceFirmware -= interval;
            if (sinceFirmware < Seconds{0.0})
                sinceFirmware = Seconds{};
            setpointMoved = setpoint() != before;
        }

        state_.simNow += span;
        consumed += k;

        // A moved setpoint or a safety action invalidates the held
        // operating point: hand the remaining ticks back to the exact
        // path.
        if (setpointMoved || modeChanged)
            break;
    }
    return consumed;
}

void
Chip::attachFaultInjector(fault::FaultInjector *injector)
{
    fatalIf(injector != nullptr &&
            injector->coreCount() != config_.coreCount,
            "fault injector core count does not match the chip");
    faultInjector_ = injector;
    state_.lastFaultActive = injector != nullptr && injector->active().any;
    if (faultInjector_ == nullptr) {
        cpms_.clearFaults();
        vrm_->injectDacStuck(config_.railIndex, false);
        vrm_->injectDacOffset(config_.railIndex, Volts{});
    } else {
        applyFaults();
    }
    ++stateEpoch_;
}

void
Chip::applyFaults()
{
    const fault::ActiveFaultSet &active = faultInjector_->active();
    for (size_t i = 0; i < config_.coreCount; ++i)
        cpms_.bank(i).setFault(active.cpm[i]);
    vrm_->injectDacStuck(config_.railIndex, active.dacStuck);
    vrm_->injectDacOffset(config_.railIndex, active.dacOffset);
}

void
Chip::runSafetyMonitor(const pdn::DidtSample &noise,
                       Volts worstCharacteristic, Seconds dt)
{
    const size_t n = config_.coreCount;
    const bool adaptive =
        state_.mode == GuardbandMode::AdaptiveUndervolt ||
        state_.mode == GuardbandMode::AdaptiveOverclock;

    // A timing emergency is ground truth, not a sensor reading: the
    // committed operating point (voltage minus the guaranteed noise
    // envelope) fell below vmin at the frequency the core actually
    // runs. In adaptive modes the CPM-DPLL loop rides through
    // worst-case droops it can see (that response is already charged
    // to droopStall_); only a blind (dark/stuck) bank leaves its core
    // exposed. Non-protected cores are assessed against the
    // *characterized* droop envelope (worstCharacteristic, which
    // includes any storm depth scaling) rather than the sampled
    // instantaneous depth: the static guardband is provisioned for the
    // envelope, and the sampler's synthetic heavy tail above it would
    // otherwise flag a healthy chip at full load. Margin violations
    // from undervolting below vmin (lying CPMs, DAC under-delivery)
    // enter through the core voltages and are unaffected by this
    // choice.
    const Volts *const cv = state_.coreVoltage.data();
    int emergencies = 0;
    Volts worst = curve_.params().staticGuardband;
    bool anyCore = false;
    const Volts envelopeDroop =
        noise.droopEvents > 0 ? worstCharacteristic : Volts{};
    for (size_t i = 0; i < n; ++i) {
        if (state_.loads[i].gated)
            continue;
        const bool loopProtects = adaptive && !cpms_.bank(i).blind();
        const Volts sag = loopProtects
                              ? noise.typicalNow
                              : std::max(noise.typicalNow,
                                         envelopeDroop);
        const Volts margin = (cv[i] - sag) -
                             curve_.vminAt(state_.dpll[i].frequency);
        if (!anyCore || margin < worst)
            worst = margin;
        anyCore = true;
        // The tolerance band separates the adaptive loop's normal
        // near-vmin operating texture from a genuine undervoltage
        // (see SafetyMonitorParams::marginTolerance).
        if (margin < -safety_.params().marginTolerance)
            ++emergencies;
    }
    state_.lastEmergencies = emergencies;
    state_.lastWorstMargin = worst;
    state_.lastDemotions = 0;
    state_.lastRearms = 0;
    if (emergencies > 0)
        obsEmergencies_->add(emergencies);

    applySafetyAction(safety_.observe(state_.safety, emergencies > 0,
                                      adaptive, dt),
                      emergencies);
}

void
Chip::applySafetyAction(SafetyMonitor::Action action, int emergencies)
{
    switch (action) {
      case SafetyMonitor::Action::None:
        break;
      case SafetyMonitor::Action::Demote:
        // Graceful degradation: back to the full static guardband at
        // the commanded DVFS target. The commanded mode is remembered
        // in state_.commandedMode for a later re-arm.
        applyMode(GuardbandMode::StaticGuardband);
        state_.lastDemotions = 1;
        obsDemotions_->add();
        if (obs::tracingEnabled()) {
            obs::TraceEvent event = chipEvent(
                obs::TraceKind::SafetyDemotion, simTime(),
                config_.railIndex);
            event.a = double(emergencies);
            event.detail = std::string("demoted from ") +
                           guardbandModeName(state_.commandedMode);
            obs::emit(std::move(event));
        }
        break;
      case SafetyMonitor::Action::Rearm:
        applyMode(state_.commandedMode);
        state_.lastRearms = 1;
        obsRearms_->add();
        if (obs::tracingEnabled()) {
            obs::TraceEvent event = chipEvent(obs::TraceKind::SafetyRearm,
                                              simTime(), config_.railIndex);
            event.detail = std::string("re-armed ") +
                           guardbandModeName(state_.commandedMode);
            obs::emit(std::move(event));
        }
        break;
    }
}

void
Chip::checkpointInto(ChipCheckpoint &cp) const
{
    cp.seed = config_.seed;
    cp.coreCount = config_.coreCount;
    cp.state = state_;
    cp.railSetpoint = vrm_->setpoint(config_.railIndex);
    cp.railLastCurrent = vrm_->sensedCurrent(config_.railIndex);
    cp.hadInjector = faultInjector_ != nullptr;
    cp.faultClock = faultInjector_ != nullptr ? faultInjector_->now()
                                              : Seconds{0.0};
}

void
Chip::restoreCheckpoint(const ChipCheckpoint &cp)
{
    // Everything is checked before anything is written, so a rejected
    // checkpoint leaves the chip as it was.
    const size_t n = config_.coreCount;
    fatalIf(cp.coreCount != n,
            "chip checkpoint core count does not match this chip");
    fatalIf(cp.seed != config_.seed,
            "chip checkpoint seed does not match this chip (a restored "
            "chip must replay the same stochastic streams)");
    const ChipState &s = cp.state;
    const sensors::Telemetry::State &t = s.telemetry;
    fatalIf(s.loads.size() != n || s.decomposition.size() != n ||
                s.coreVoltage.size() != n || s.coreCtrlVoltage.size() != n ||
                s.coreCurrent.size() != n || s.droopStall.size() != n ||
                s.dpll.size() != n || t.lastSample.size() != n ||
                t.stickyMin.size() != n || t.voltageSum.size() != n ||
                t.frequencySum.size() != n,
            "chip checkpoint per-core sizes do not match the core count");

    state_ = s;
    // Completed windows are the history a restarted server lost; the
    // window in progress came back with the state.
    telemetry_.clearWindows();
    vrm_->restoreRail(config_.railIndex, cp.railSetpoint,
                      cp.railLastCurrent);

    // Mid-step sense-phase outputs are never checkpointed (checkpoints
    // are taken between steps); clear them so a half-stepped chip
    // cannot leak state across a restore.
    pendingNoise_ = pdn::DidtSample{};
    pendingWorstCharacteristic_ = Volts{0.0};

    // Fault state: the rail restore above cleared injected VRM faults,
    // so either re-apply the attached injector's active set at the
    // restored clock or scrub the sensor models too. The fault-edge flag
    // follows the injector this chip has, not the one it was taken with.
    if (faultInjector_ != nullptr) {
        if (cp.hadInjector)
            faultInjector_->restoreClock(cp.faultClock);
        else
            faultInjector_->reset();
        applyFaults();
        state_.lastFaultActive = faultInjector_->active().any;
    } else {
        cpms_.clearFaults();
        state_.lastFaultActive = false;
    }

    // The epoch bump is what keeps sampled fleet stepping honest: any
    // phase detector watching this chip sees the transient and drops
    // back to exact stepping instead of fast-forwarding across the
    // restore edge.
    ++stateEpoch_;
}

ChipHealthView
Chip::healthView() const
{
    ChipHealthView view;
    view.state = state_.safety.state;
    view.commandedMode = state_.commandedMode;
    view.effectiveMode = state_.mode;
    view.demotions = state_.safety.demotions;
    view.rearms = state_.safety.rearms;
    view.emergencies = state_.safety.totalEmergencies;
    view.rearmBudget = safety_.rearmBudget(state_.safety);
    view.latchedDroopDepth = state_.latchedDroopDepth;
    return view;
}

void
Chip::settle(Seconds duration, Seconds dt)
{
    fatalIf(duration <= Seconds{0.0} || dt <= Seconds{0.0}, "settle needs positive times");
    const int steps = int(duration / dt);
    for (int i = 0; i < steps; ++i)
        step(dt);
}

Hertz
Chip::coreFrequency(size_t core) const
{
    panicIf(core >= config_.coreCount, "core index out of range");
    if (state_.loads[core].gated)
        return Hertz{0.0};
    return state_.dpll[core].frequency;
}

Volts
Chip::coreVoltage(size_t core) const
{
    panicIf(core >= config_.coreCount, "core index out of range");
    return state_.coreVoltage[core];
}

Hertz
Chip::meanActiveFrequency() const
{
    Hertz sum;
    size_t count = 0;
    for (size_t i = 0; i < config_.coreCount; ++i) {
        if (state_.loads[i].active) {
            sum += state_.dpll[i].frequency;
            ++count;
        }
    }
    return count == 0 ? state_.targetFrequency : sum / double(count);
}

Hertz
Chip::minActiveFrequency() const
{
    Hertz lowest;
    bool any = false;
    for (size_t i = 0; i < config_.coreCount; ++i) {
        if (state_.loads[i].active) {
            const Hertz f = state_.dpll[i].frequency;
            lowest = any ? std::min(lowest, f) : f;
            any = true;
        }
    }
    return any ? lowest : state_.targetFrequency;
}

const pdn::DropDecomposition &
Chip::decomposition(size_t core) const
{
    panicIf(core >= config_.coreCount, "core index out of range");
    return state_.decomposition[core];
}

Seconds
Chip::droopStall(size_t core) const
{
    panicIf(core >= config_.coreCount, "core index out of range");
    return state_.droopStall[core];
}

void
Chip::resetDroopHistogram()
{
    droopHistogram_ = stats::Histogram(0.0,
                                       config_.droopHistogramMax.value(),
                                       config_.droopHistogramBins);
}

size_t
Chip::activeCoreCount() const
{
    size_t count = 0;
    for (const CoreLoad &load : state_.loads) {
        if (load.active)
            ++count;
    }
    return count;
}

} // namespace agsim::chip
