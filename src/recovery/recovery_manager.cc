#include "recovery/recovery_manager.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "obs/observability.h"

namespace agsim::recovery {

void
RecoveryPolicy::validate() const
{
    fatalIf(heartbeatTimeout <= Seconds{0.0},
            "recovery heartbeat timeout must be positive");
    fatalIf(probeInitialDelay <= Seconds{0.0},
            "recovery probe delay must be positive");
    fatalIf(probeBackoff < 1.0,
            "recovery probe backoff must be >= 1 (delays cannot shrink)");
    fatalIf(probeBudget < 1, "recovery probe budget must be >= 1");
    fatalIf(checkpointInterval <= Seconds{0.0},
            "recovery checkpoint interval must be positive");
    fatalIf(restartLatency < Seconds{0.0},
            "recovery restart latency cannot be negative");
    fatalIf(stormFailureThreshold < 1,
            "storm failure threshold must be >= 1");
    fatalIf(cascadeFailureThreshold < stormFailureThreshold,
            "cascade threshold cannot sit below the storm threshold");
    fatalIf(shedFailureThreshold < cascadeFailureThreshold,
            "shed threshold cannot sit below the cascade threshold");
    fatalIf(stormWindow <= Seconds{0.0},
            "storm window must be positive");
    fatalIf(shedFraction < 0.0 || shedFraction >= 1.0,
            "shed fraction must be in [0, 1)");
}

RecoveryManager::RecoveryManager(system::FleetStepper *stepper,
                                 const RecoveryPolicy &policy)
    : stepper_(stepper), policy_(policy)
{
    fatalIf(stepper_ == nullptr, "recovery manager needs a fleet stepper");
    policy_.validate();
    obs::MetricRegistry &reg = obs::registry();
    obsFailures_ = &reg.counter("recovery.failures_total");
    obsDetections_ = &reg.counter("recovery.detections_total");
    obsProbes_ = &reg.counter("recovery.probes_total");
    obsProbeFailures_ = &reg.counter("recovery.probe_failures_total");
    obsRestarts_ = &reg.counter("recovery.restarts_total");
    obsRestores_ = &reg.counter("recovery.restores_total");
    obsSelfRecoveries_ = &reg.counter("recovery.self_recoveries_total");
    obsCheckpoints_ = &reg.counter("recovery.checkpoints_total");
    obsMigrations_ = &reg.counter("recovery.migrations_total");
    obsLadderTransitions_ = &reg.counter("recovery.ladder_transitions_total");
    obsShedThreads_ = &reg.gauge("recovery.shed_threads");
}

size_t
RecoveryManager::addServer(system::Server &server,
                           const fault::FaultPlan *plan)
{
    ServerRecord record;
    record.server = &server;
    record.slots = stepper_->addServer(server);
    if (plan != nullptr) {
        record.injector = std::make_unique<fault::FaultInjector>(
            *plan, server.chip(0).coreCount(), fault::FaultScope::Server);
    }
    record.checkpoints.resize(server.socketCount());
    record.baselineMode.reserve(server.socketCount());
    for (size_t s = 0; s < server.socketCount(); ++s)
        record.baselineMode.push_back(server.chip(s).commandedMode());
    record.lastSimTime = server.chip(0).simTime();
    record.lastProgressAt = now_;
    servers_.push_back(std::move(record));
    return servers_.size() - 1;
}

void
RecoveryManager::setWorkload(size_t threads, const chip::CoreLoad &load)
{
    size_t capacity = 0;
    for (const ServerRecord &record : servers_) {
        capacity += record.server->socketCount() *
                    record.server->chip(0).coreCount();
    }
    fatalIf(threads > capacity,
            "fleet workload exceeds total core capacity");
    workloadThreads_ = threads;
    workloadLoad_ = load;
    haveWorkload_ = true;
    applyPlacement();
}

ServerRecoveryState
RecoveryManager::state(size_t server) const
{
    fatalIf(server >= servers_.size(), "recovery server index out of range");
    return servers_[server].state;
}

bool
RecoveryManager::servable(size_t server) const
{
    fatalIf(server >= servers_.size(), "recovery server index out of range");
    return servable(servers_[server]);
}

const std::vector<size_t> &
RecoveryManager::placedPerSocket(size_t server) const
{
    fatalIf(server >= servers_.size(), "recovery server index out of range");
    return servers_[server].placedPerSocket;
}

size_t
RecoveryManager::onlineCount() const
{
    size_t n = 0;
    for (const ServerRecord &record : servers_) {
        if (servable(record))
            ++n;
    }
    return n;
}

Seconds
RecoveryManager::meanTimeToRecover() const
{
    if (mttrCount_ == 0)
        return Seconds{0.0};
    return mttrSum_ / double(mttrCount_);
}

bool
RecoveryManager::servable(const ServerRecord &record)
{
    return record.state == ServerRecoveryState::Online && !record.frozen;
}

void
RecoveryManager::setTelemetry(obs::telemetry::TelemetryHub *hub)
{
    hub_ = hub;
    if (hub_ == nullptr || !hub_->enabled())
        return;
    tsOnline_ = hub_->declareSeries("recovery.online");
    tsRung_ = hub_->declareSeries("recovery.rung");
    tsMttr_ = hub_->declareSeries("recovery.mttr_s");
    tsPlaced_ = hub_->declareSeries("recovery.placed_threads");
}

void
RecoveryManager::sampleTelemetry()
{
    if (hub_ == nullptr || !hub_->enabled() || now_ < nextTelemetryAt_)
        return;
    nextTelemetryAt_ = now_ + hub_->sampleInterval();
    hub_->record(tsOnline_, 0, now_, double(onlineCount()));
    hub_->record(tsRung_, 0, now_, double(rung_));
    hub_->record(tsMttr_, 0, now_, meanTimeToRecover().value());
    hub_->record(tsPlaced_, 0, now_, double(placedThreads_));
}

void
RecoveryManager::tick(Seconds dt)
{
    fatalIf(dt <= Seconds{0.0}, "recovery tick needs a positive dt");
    now_ += dt;
    // Phase 1 runs even when disabled: faults strike regardless of
    // whether anyone is watching.
    applyServerFaults(dt);
    if (policy_.enabled) {
        runWatchdog();
        runProbes();
        completeRestores();
        captureCheckpoints();
        stepLadder();
    }
    // Telemetry last, so samples see this tick's recovery actions.
    sampleTelemetry();
    if (hub_ != nullptr)
        hub_->tick(now_);
}

const char *
RecoveryManager::outageKind(const ServerRecord &record)
{
    if (record.injector == nullptr)
        return "unknown";
    const fault::ActiveFaultSet &active = record.injector->active();
    if (active.serverCrash)
        return "server-crash";
    if (active.vrmShutdown)
        return "vrm-shutdown";
    if (active.serverHang)
        return "server-hang";
    return "unknown";
}

void
RecoveryManager::freezeServer(ServerRecord &record)
{
    for (size_t slot : record.slots)
        stepper_->setChipActive(slot, false);
    record.frozen = true;
}

void
RecoveryManager::unfreezeServer(ServerRecord &record)
{
    for (size_t slot : record.slots)
        stepper_->setChipActive(slot, true);
    record.frozen = false;
}

void
RecoveryManager::finishOutage(ServerRecord &record, size_t index,
                              const char *how)
{
    const Seconds outage = now_ - record.outageStart;
    mttrSum_ += outage;
    ++mttrCount_;
    obs::TraceEvent event;
    event.simTime = now_;
    event.kind = obs::TraceKind::ServerRecovery;
    event.chip = int32_t(index);
    event.a = double(index);
    event.b = outage.value();
    event.detail = how;
    obs::emit(std::move(event));
    record.stateLost = false;
    record.state = ServerRecoveryState::Online;
    record.lastSimTime = record.server->chip(0).simTime();
    record.lastProgressAt = now_;
}

void
RecoveryManager::applyServerFaults(Seconds dt)
{
    for (size_t i = 0; i < servers_.size(); ++i) {
        ServerRecord &record = servers_[i];
        if (record.injector == nullptr)
            continue;
        record.injector->advance(dt);
        const fault::ActiveFaultSet &active = record.injector->active();
        const bool faultUp = active.serverCrash || active.serverHang ||
                             active.vrmShutdown;
        if (!faultUp)
            record.suppressFaultFreeze = false;
        const bool outage = faultUp && !record.suppressFaultFreeze;
        if (outage && !record.frozen) {
            freezeServer(record);
            record.outageStart = now_;
        }
        if (active.serverCrash || active.vrmShutdown)
            record.stateLost = true;
        if (!outage && record.frozen && !record.stateLost) {
            // A hang window expired with volatile state intact: the
            // server picks up exactly where it stopped, no help needed
            // (this is the only recovery path the blind arm has).
            unfreezeServer(record);
            finishOutage(record, i, "self");
            ++selfRecoveries_;
            obsSelfRecoveries_->add(1);
            if (policy_.enabled)
                applyPlacement();
        }
    }
}

void
RecoveryManager::runWatchdog()
{
    for (size_t i = 0; i < servers_.size(); ++i) {
        ServerRecord &record = servers_[i];
        if (record.state != ServerRecoveryState::Online)
            continue;
        const Seconds simTime = record.server->chip(0).simTime();
        if (simTime > record.lastSimTime) {
            record.lastSimTime = simTime;
            record.lastProgressAt = now_;
            continue;
        }
        if (now_ - record.lastProgressAt <= policy_.heartbeatTimeout)
            continue;
        record.state = ServerRecoveryState::Failed;
        record.probeDelay = policy_.probeInitialDelay;
        record.nextProbeAt = now_ + record.probeDelay;
        record.probesUsed = 0;
        ++failures_;
        obsFailures_->add(1);
        obsDetections_->add(1);
        failureTimes_.push_back(now_);
        obs::TraceEvent event;
        event.simTime = now_;
        event.kind = obs::TraceKind::ServerFailure;
        event.chip = int32_t(i);
        event.a = double(i);
        event.detail = outageKind(record);
        obs::emit(std::move(event));
        // Drain: re-apportion the workload over surviving capacity.
        applyPlacement();
    }
}

void
RecoveryManager::runProbes()
{
    for (ServerRecord &record : servers_) {
        if (record.state != ServerRecoveryState::Failed)
            continue;
        if (now_ < record.nextProbeAt || record.injector == nullptr)
            continue;
        obsProbes_->add(1);
        const fault::ActiveFaultSet &active = record.injector->active();
        const bool hardDown = active.serverCrash || active.vrmShutdown;
        bool success = false;
        if (!hardDown && active.serverHang) {
            // A hung-but-powered server answers a power-cycle even
            // mid-window — at the cost of its volatile state.
            record.stateLost = true;
            record.suppressFaultFreeze = true;
            success = true;
        } else if (!hardDown) {
            // Crash/VRM cause has cleared; the restart will take.
            success = true;
        }
        if (success) {
            record.state = ServerRecoveryState::Restoring;
            record.restoreDoneAt =
                now_ + policy_.restartLatency * active.restartSlowdown;
            obsRestarts_->add(1);
            continue;
        }
        obsProbeFailures_->add(1);
        ++record.probesUsed;
        record.probeDelay = record.probeDelay * policy_.probeBackoff;
        record.nextProbeAt = now_ + record.probeDelay;
        if (record.probesUsed >= policy_.probeBudget)
            record.state = ServerRecoveryState::Abandoned;
    }
}

void
RecoveryManager::completeRestores()
{
    bool recovered = false;
    for (size_t i = 0; i < servers_.size(); ++i) {
        ServerRecord &record = servers_[i];
        if (record.state != ServerRecoveryState::Restoring ||
            now_ < record.restoreDoneAt)
            continue;
        const char *how = "warm";
        if (record.stateLost && record.hasCheckpoint) {
            for (size_t s = 0; s < record.server->socketCount(); ++s) {
                record.server->chip(s).restoreCheckpoint(
                    record.checkpoints[s]);
            }
            how = "restore";
            obsRestores_->add(1);
        } else if (record.stateLost) {
            // No checkpoint yet: cold start at the configured modes
            // with an empty load set; placement refills it below.
            for (size_t s = 0; s < record.server->socketCount(); ++s)
                record.server->chip(s).setMode(record.baselineMode[s]);
            record.server->clearLoads();
            how = "cold";
        }
        unfreezeServer(record);
        finishOutage(record, i, how);
        ++recoveries_;
        recovered = true;
    }
    if (recovered) {
        // The recovered chips may carry pre-outage (checkpointed) modes
        // from before a ladder move; re-impose the current rung, then
        // give the servers their share of the workload back.
        applyLadderModes();
        applyPlacement();
    }
}

void
RecoveryManager::captureCheckpoints()
{
    const Seconds interval = policy_.checkpointInterval;
    for (size_t i = 0; i < servers_.size(); ++i) {
        ServerRecord &record = servers_[i];
        if (!servable(record))
            continue;
        if (record.hasCheckpoint &&
            now_ - record.lastCheckpointAt < interval)
            continue;
        // Server i's first capture is offset by i/N of an interval, so
        // each tick captures a slice of the fleet, not all of it at once.
        if (!record.hasCheckpoint &&
            now_ < interval * (1.0 + double(i) / double(servers_.size())))
            continue;
        for (size_t s = 0; s < record.server->socketCount(); ++s) {
            record.checkpoints[s] = record.server->chip(s).checkpoint();
        }
        record.hasCheckpoint = true;
        record.lastCheckpointAt = now_;
        ++checkpointsTaken_;
        obsCheckpoints_->add(1);
    }
}

void
RecoveryManager::stepLadder()
{
    while (!failureTimes_.empty() &&
           now_ - failureTimes_.front() > policy_.stormWindow)
        failureTimes_.pop_front();
    const int recent = int(failureTimes_.size());
    int desired = 0;
    if (recent >= policy_.shedFailureThreshold)
        desired = 3;
    else if (recent >= policy_.cascadeFailureThreshold)
        desired = 2;
    else if (recent >= policy_.stormFailureThreshold)
        desired = 1;

    int target = rung_;
    if (desired > rung_) {
        target = desired; // escalate immediately
    } else if (desired < rung_ &&
               now_ - lastRungChangeAt_ >= policy_.stormWindow) {
        target = rung_ - 1; // de-escalate one rung per clean window
    }
    if (target == rung_)
        return;
    obs::TraceEvent event;
    event.simTime = now_;
    event.kind = obs::TraceKind::DegradationStep;
    event.a = double(rung_);
    event.b = double(target);
    event.detail = recent >= policy_.stormFailureThreshold
                       ? "failure storm"
                       : "storm clearing";
    obs::emit(std::move(event));
    rung_ = target;
    lastRungChangeAt_ = now_;
    obsLadderTransitions_->add(1);
    applyLadderModes();
    applyPlacement();
}

void
RecoveryManager::applyLadderModes()
{
    for (ServerRecord &record : servers_) {
        if (!servable(record))
            continue;
        for (size_t s = 0; s < record.server->socketCount(); ++s) {
            chip::GuardbandMode mode = record.baselineMode[s];
            if (rung_ >= 2) {
                mode = chip::GuardbandMode::StaticGuardband;
            } else if (rung_ == 1 &&
                       mode == chip::GuardbandMode::AdaptiveOverclock) {
                mode = chip::GuardbandMode::AdaptiveUndervolt;
            }
            if (record.server->chip(s).commandedMode() != mode)
                record.server->chip(s).setMode(mode);
        }
    }
}

void
RecoveryManager::applyPlacement()
{
    if (!haveWorkload_)
        return;
    // Shed first (rung 3), then place only what fits on servable cores,
    // split over servers in proportion to their core counts.
    size_t want = workloadThreads_;
    if (rung_ >= 3)
        want -= size_t(double(workloadThreads_) * policy_.shedFraction);
    std::vector<double> capacity(servers_.size(), 0.0);
    size_t servableCores = 0;
    for (size_t i = 0; i < servers_.size(); ++i) {
        if (!servable(servers_[i]))
            continue;
        const size_t cores = servers_[i].server->socketCount() *
                             servers_[i].server->chip(0).coreCount();
        capacity[i] = double(cores);
        servableCores += cores;
    }
    want = std::min(want, servableCores);
    const std::vector<uint64_t> counts =
        core::splitByWeight(want, capacity);

    // A thread migrates only when one server loses it and another
    // gains it; a fleet-wide shrink or growth alone moves nothing.
    int64_t lost = 0;
    int64_t gained = 0;
    for (size_t i = 0; i < servers_.size(); ++i) {
        const int64_t delta =
            int64_t(counts[i]) - int64_t(servers_[i].assignedThreads);
        if (delta < 0)
            lost -= delta;
        else
            gained += delta;
    }
    const int64_t moved = std::min(lost, gained);
    if (moved > 0)
        obsMigrations_->add(moved);

    for (size_t i = 0; i < servers_.size(); ++i) {
        ServerRecord &record = servers_[i];
        if (!servable(record)) {
            // Its chips may come back with checkpointed, cold, or
            // pre-outage loads: forget what was written so the
            // placement that returns it rewrites every socket.
            record.assignedThreads = 0;
            record.placedPerSocket.clear();
            continue;
        }
        system::Server &server = *record.server;
        const bool known = !record.placedPerSocket.empty();
        std::vector<size_t> perSocket(server.socketCount(), 0);
        if (counts[i] > 0) {
            std::vector<chip::ChipHealthView> health;
            health.reserve(server.socketCount());
            for (size_t s = 0; s < server.socketCount(); ++s)
                health.push_back(server.chip(s).healthView());
            // The trust update runs on every re-place so the re-arm
            // hysteresis sees each one. With the same count and trust,
            // the assignment would repeat what is already placed.
            const bool trustFlipped = record.placer.updateTrust(health);
            if (known && !trustFlipped &&
                counts[i] == record.assignedThreads)
                continue;
            perSocket = record.placer
                            .assign(health, size_t(counts[i]),
                                    server.chip(0).coreCount(), now_)
                            .threadsPerSocket;
        }
        for (size_t s = 0; s < server.socketCount(); ++s) {
            const size_t threads = perSocket[s];
            if (known && threads == record.placedPerSocket[s])
                continue; // untouched: a sampled chip stays armed
            chip::Chip &c = server.chip(s);
            for (size_t core = 0; core < c.coreCount(); ++core) {
                c.setLoad(core, core < threads ? workloadLoad_
                                               : chip::CoreLoad::idle());
            }
        }
        record.placedPerSocket = std::move(perSocket);
        record.assignedThreads = size_t(counts[i]);
    }

    placedThreads_ = want;
    obsShedThreads_->set(double(workloadThreads_ - want));
}

} // namespace agsim::recovery
