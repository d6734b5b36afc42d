#include "system/fleet_stepper.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <thread>

#include "common/error.h"
#include "obs/scoped_timer.h"

namespace agsim::system {

FleetStepper::FleetStepper(const FleetStepperConfig &config)
    : config_(config)
{
    fatalIf(config_.shardSize == 0, "fleet shard size must be positive");
    fatalIf(config_.tickBlock <= 0, "fleet tick block must be positive");
    fatalIf(config_.detector.window < 2,
            "phase detector window needs at least two samples");
    fatalIf(config_.detector.maxFastForwardTicks <= 0,
            "max fast-forward span must be positive");
    obs::MetricRegistry &reg = obs::registry();
    obsChipsStepped_ = &reg.counter("fleet.chips_stepped_total");
    obsFastForwarded_ = &reg.counter("fleet.fast_forwarded_ticks_total");
    obsSweepTimer_ = reg.timer("fleet.shard.sweep");
}

size_t
FleetStepper::addChip(chip::Chip *c)
{
    fatalIf(c == nullptr, "cannot add a null chip to the fleet");
    fatalIf(frozen_, "fleet membership is frozen after the first sweep");
    Slot slot;
    slot.chip = c;
    slot.margin.assign(config_.detector.window, 0.0);
    slot.freq.assign(config_.detector.window, 0.0);
    slots_.push_back(std::move(slot));
    return slots_.size() - 1;
}

std::vector<size_t>
FleetStepper::addServer(Server &server)
{
    std::vector<size_t> indices;
    indices.reserve(server.socketCount());
    for (size_t i = 0; i < server.socketCount(); ++i)
        indices.push_back(addChip(&server.chip(i)));
    return indices;
}

void
FleetStepper::setChipActive(size_t index, bool active)
{
    fatalIf(index >= slots_.size(), "fleet chip index out of range");
    Slot &slot = slots_[index];
    if (slot.active == active)
        return;
    slot.active = active;
    if (active) {
        // The chip may have been restored or cold-restarted while
        // frozen; any quiescence evidence predates that. Resync the
        // transient references and make the detector start over.
        slot.epoch = slot.chip->stateEpoch();
        slot.setpoint = slot.chip->setpoint().value();
        slot.forwardedSinceExact = 0;
        disarm(slot);
    }
}

bool
FleetStepper::chipActive(size_t index) const
{
    fatalIf(index >= slots_.size(), "fleet chip index out of range");
    return slots_[index].active;
}

void
FleetStepper::setTelemetry(obs::telemetry::TelemetryHub *hub)
{
    fatalIf(frozen_, "attach telemetry before the first fleet sweep");
    hub_ = hub;
}

void
FleetStepper::freeze()
{
    if (frozen_)
        return;
    frozen_ = true;
    fatalIf(slots_.empty(), "fleet has no chips");
    const size_t shards =
        (slots_.size() + config_.shardSize - 1) / config_.shardSize;
    const size_t threads =
        config_.threads == 0
            ? std::max(1u, std::thread::hardware_concurrency())
            : config_.threads;
    if (std::min(threads, shards) > 1)
        pool_ = std::make_unique<StealPool>(std::min(threads, shards));
    telemetryOn_ = hub_ != nullptr && hub_->enabled();
    if (telemetryOn_) {
        tsMargin_ = hub_->declareSeries("fleet.margin", shards);
        tsFreq_ = hub_->declareSeries("fleet.freq_ghz", shards);
        tsPower_ = hub_->declareSeries("fleet.power_w", shards);
    }
    if (!config_.adoptSoA)
        return;
    // A shared arena needs one per-core lane stride; mixed-core fleets
    // keep their private blocks (correct either way, just less dense).
    const size_t cores = slots_.front().chip->coreCount();
    for (const Slot &slot : slots_) {
        if (slot.chip->coreCount() != cores)
            return;
    }
    arena_ = std::make_shared<chip::ChipStateSoA>(cores);
    for (size_t i = 0; i < slots_.size(); ++i)
        arena_->addSlot();
    for (size_t i = 0; i < slots_.size(); ++i)
        slots_[i].chip->migrateState(arena_, i);
}

void
FleetStepper::disarm(Slot &slot)
{
    slot.head = 0;
    slot.filled = 0;
    slot.armed = false;
}

bool
FleetStepper::transientSeen(Slot &slot) const
{
    chip::Chip &c = *slot.chip;

    // Any control change, emergency, or droop response is a transient.
    const uint64_t epoch = c.stateEpoch();
    if (epoch != slot.epoch) {
        slot.epoch = epoch;
        return true;
    }
    if (c.lastStepEmergencies() > 0)
        return true;
    const chip::ChipStateSoA &block = c.stateBlock();
    const size_t base = c.stateSlot() * c.coreCount();
    for (size_t i = 0; i < c.coreCount(); ++i) {
        if (block.droopStall[base + i] > Seconds{})
            return true;
    }
    const double setpoint = c.setpoint().value();
    if (slot.filled > 0 && setpoint != slot.setpoint) {
        slot.setpoint = setpoint;
        return true;
    }
    slot.setpoint = setpoint;

    // A storm (or any active fault) keeps the chip on the exact path;
    // the envelope the analytic margin holds would otherwise hide the
    // storm's per-tick texture from the safety monitor.
    if (c.faultInjector() != nullptr && c.faultInjector()->active().any)
        return true;
    return false;
}

void
FleetStepper::observe(Slot &slot)
{
    chip::Chip &c = *slot.chip;

    if (transientSeen(slot)) {
        disarm(slot);
        return;
    }

    const chip::ChipStateSoA &block = c.stateBlock();
    const size_t base = c.stateSlot() * c.coreCount();
    double meanFreq = 0.0;
    size_t activeCores = 0;
    for (size_t i = 0; i < c.coreCount(); ++i) {
        const double f = block.coreFrequency[base + i].value();
        if (f > 0.0) {
            meanFreq += f;
            ++activeCores;
        }
    }
    if (activeCores > 0)
        meanFreq /= double(activeCores);

    const size_t window = config_.detector.window;
    slot.margin[slot.head] = c.lastWorstMargin().value();
    slot.freq[slot.head] = meanFreq;
    slot.head = (slot.head + 1) % window;
    if (slot.filled < window) {
        ++slot.filled;
        return;
    }

    // Window full: quiescent iff the margin is flat (low variance, no
    // drift between window halves) and the frequency is pinned. The
    // ring rotates, but variance and half-means are order-insensitive
    // enough: the "halves" are the oldest/newest W/2 samples, and after
    // a disarm the ring always refills from index 0.
    double sum = 0.0;
    double sumSq = 0.0;
    for (double m : slot.margin) {
        sum += m;
        sumSq += m * m;
    }
    const double n = double(window);
    const double mean = sum / n;
    const double var = std::max(0.0, sumSq / n - mean * mean);
    if (std::sqrt(var) > config_.detector.marginStddev.value())
        return;

    const size_t half = window / 2;
    double older = 0.0;
    double newer = 0.0;
    for (size_t i = 0; i < half; ++i) {
        older += slot.margin[(slot.head + i) % window];
        newer += slot.margin[(slot.head + window - 1 - i) % window];
    }
    if (std::abs(newer - older) / double(half) >
        config_.detector.marginDrift.value())
        return;

    double fLo = slot.freq[0];
    double fHi = slot.freq[0];
    for (double f : slot.freq) {
        fLo = std::min(fLo, f);
        fHi = std::max(fHi, f);
    }
    if (fHi > 0.0 && (fHi - fLo) / fHi > config_.detector.freqSpread)
        return;

    slot.armed = true;
}

int64_t
FleetStepper::forwardBudget(const Slot &slot, Seconds dt) const
{
    int64_t budget = config_.detector.maxFastForwardTicks;
    const fault::FaultInjector *injector = slot.chip->faultInjector();
    if (injector != nullptr) {
        // Never skip across a fault-plan edge: resume exact stepping at
        // least one tick before the next onset/expiry.
        const Seconds next = injector->nextTransition();
        if (next >= Seconds{0.0}) {
            const int64_t clamp = int64_t(next.value() / dt.value()) - 1;
            budget = std::min(budget, clamp);
        }
    }
    return budget;
}

void
FleetStepper::sampleSlot(Slot &slot)
{
    chip::Chip &c = *slot.chip;
    const Seconds t = c.simTime();
    if (t < slot.nextSampleAt)
        return;
    slot.nextSampleAt = t + hub_->sampleInterval();
    const size_t shard =
        size_t(&slot - slots_.data()) / config_.shardSize;
    hub_->record(tsMargin_, shard, t, c.lastWorstMargin().value());
    hub_->record(tsPower_, shard, t, c.power().value());
    double meanFreq = 0.0;
    size_t activeCores = 0;
    for (size_t i = 0; i < c.coreCount(); ++i) {
        const double f = c.coreFrequency(i).value();
        if (f > 0.0) {
            meanFreq += f;
            ++activeCores;
        }
    }
    if (activeCores > 0)
        meanFreq /= double(activeCores);
    hub_->record(tsFreq_, shard, t, meanFreq / 1e9);
}

void
FleetStepper::stepChipBlock(Slot &slot, int64_t ticks, Seconds dt,
                            int64_t &exact, int64_t &forwarded)
{
    if (!slot.active)
        return;
    chip::Chip &c = *slot.chip;
    int64_t left = ticks;
    if (!config_.sampling) {
        for (int64_t k = 0; k < left; ++k)
            c.step(dt);
        exact += left;
        if (telemetryOn_)
            sampleSlot(slot);
        return;
    }
    while (left > 0) {
        if (slot.armed) {
            // External control changes (loads, mode, DVFS) can land
            // between sweeps — never fast-forward over one: the held
            // operating point predates it.
            if (c.stateEpoch() != slot.epoch) {
                slot.epoch = c.stateEpoch();
                disarm(slot);
                continue;
            }
            // The re-anchor cadence counts forwarded ticks across
            // blocks: one logical span is usually split over many
            // tickBlock-sized calls, so `left` alone would never let a
            // span reach maxFastForwardTicks.
            const int64_t sinceExactLeft =
                config_.detector.maxFastForwardTicks -
                slot.forwardedSinceExact;
            const int64_t budget = std::min(
                {forwardBudget(slot, dt), left, sinceExactLeft});
            if (budget > 0) {
                const int64_t consumed = c.fastForward(budget, dt);
                forwarded += consumed;
                left -= consumed;
                slot.forwardedSinceExact += consumed;
                // A short span means a firmware decision or safety
                // action moved the operating point mid-flight; so does
                // a bumped epoch or a span that saw emergencies. Back
                // to exact.
                if (consumed < budget || c.stateEpoch() != slot.epoch ||
                    c.lastStepEmergencies() > 0) {
                    slot.epoch = c.stateEpoch();
                    disarm(slot);
                }
                continue;
            }
            if (forwardBudget(slot, dt) <= 0) {
                // An imminent fault-plan edge; the exact path takes
                // over until the detector re-arms past it.
                disarm(slot);
                continue;
            }
            // Span cap reached: fall through to one exact re-anchor
            // step, which re-solves the electrical fixed point at the
            // current temperature so held-power drift cannot compound
            // across spans. Stays armed unless the step shows a
            // transient.
        }
        c.step(dt);
        ++exact;
        --left;
        slot.forwardedSinceExact = 0;
        if (slot.armed) {
            if (transientSeen(slot))
                disarm(slot);
        } else {
            observe(slot);
        }
    }
    if (telemetryOn_)
        sampleSlot(slot);
}

void
FleetStepper::run(int64_t ticks, Seconds dt)
{
    panicIf(ticks < 0, "fleet run needs a non-negative tick count");
    freeze();
    const size_t shards =
        (slots_.size() + config_.shardSize - 1) / config_.shardSize;
    const size_t workers = pool_ != nullptr ? pool_->threadCount() : 1;
    std::vector<int64_t> exactPer(workers);
    std::vector<int64_t> forwardedPer(workers);
    int64_t n = 0;
    // One task per shard: every telemetry shard lane has exactly one
    // writer per tick block, and the pool's barrier orders block N's
    // writes before block N+1's (lanes may hop threads between blocks,
    // never within one). Chips are independent, so any assignment of
    // shards to workers is bit-identical to the inline loop.
    const StealPool::TaskFn stepShard = [&](size_t worker, size_t shard) {
        const size_t lo = shard * config_.shardSize;
        const size_t hi = std::min(slots_.size(), lo + config_.shardSize);
        for (size_t i = lo; i < hi; ++i) {
            stepChipBlock(slots_[i], n, dt, exactPer[worker],
                          forwardedPer[worker]);
        }
    };

    for (int64_t done = 0; done < ticks; done += config_.tickBlock) {
        n = std::min(config_.tickBlock, ticks - done);
        obs::ScopedTimer timer(obsSweepTimer_);
        std::fill(exactPer.begin(), exactPer.end(), 0);
        std::fill(forwardedPer.begin(), forwardedPer.end(), 0);
        if (pool_ == nullptr) {
            for (size_t shard = 0; shard < shards; ++shard)
                stepShard(0, shard);
        } else {
            pool_->sweep(shards, stepShard);
        }
        const int64_t exact =
            std::accumulate(exactPer.begin(), exactPer.end(), int64_t(0));
        const int64_t forwarded = std::accumulate(
            forwardedPer.begin(), forwardedPer.end(), int64_t(0));
        // Batched: two registry touches per block, not per chip-step.
        exactSteps_ += exact;
        fastForwardedTicks_ += forwarded;
        obsChipsStepped_->add(exact);
        obsFastForwarded_->add(forwarded);
    }
}

void
FleetStepper::step(Seconds dt)
{
    freeze();
    obs::ScopedTimer timer(obsSweepTimer_);
    int64_t stepped = 0;
    for (Slot &slot : slots_) {
        if (slot.active)
            slot.chip->stepSensePhase(dt);
    }
    for (Slot &slot : slots_) {
        if (slot.active)
            slot.chip->stepControlPhase(dt);
    }
    for (Slot &slot : slots_) {
        if (slot.active) {
            slot.chip->stepCommitPhase(dt);
            ++stepped;
        }
    }
    if (telemetryOn_) {
        for (Slot &slot : slots_)
            if (slot.active)
                sampleSlot(slot);
    }
    exactSteps_ += stepped;
    obsChipsStepped_->add(stepped);
}

} // namespace agsim::system
