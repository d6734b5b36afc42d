#include "system/simulation.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "stats/accumulator.h"

namespace agsim::system {

WorkloadSimulation::WorkloadSimulation(Server *server)
    : server_(server)
{
    fatalIf(server_ == nullptr, "simulation needs a server");
}

void
WorkloadSimulation::addJob(Job job)
{
    fatalIf(job.placement.empty(), "job needs at least one thread");
    if (job.label.empty())
        job.label = job.work.profile().name;

    std::set<std::pair<size_t, size_t>> seen;
    for (const auto &existing : jobs_) {
        for (const auto &p : existing.placement)
            seen.insert({p.socket, p.core});
    }
    for (const auto &p : job.placement) {
        fatalIf(p.socket >= server_->socketCount(),
                "job '" + job.label + "': socket out of range");
        fatalIf(p.core >= server_->chip(p.socket).coreCount(),
                "job '" + job.label + "': core out of range");
        fatalIf(!seen.insert({p.socket, p.core}).second,
                "job '" + job.label + "': core placed twice");
    }
    jobs_.push_back(std::move(job));
}

void
WorkloadSimulation::gateCore(size_t socket, size_t core)
{
    fatalIf(socket >= server_->socketCount(), "socket out of range");
    fatalIf(core >= server_->chip(socket).coreCount(), "core out of range");
    for (const auto &job : jobs_) {
        for (const auto &p : job.placement) {
            fatalIf(p.socket == socket && p.core == core,
                    "cannot gate a core that runs a thread");
        }
    }
    gated_.emplace_back(socket, core);
}

size_t
WorkloadSimulation::activeThreadsOnSocket(size_t socket) const
{
    size_t count = 0;
    for (const auto &job : jobs_) {
        for (const auto &p : job.placement) {
            if (p.socket == socket)
                ++count;
        }
    }
    return count;
}

void
WorkloadSimulation::applyLoads(Seconds t)
{
    server_->clearLoads();
    for (const auto &[socket, core] : gated_)
        server_->chip(socket).setLoad(core, chip::CoreLoad::powerGated());
    for (const auto &job : jobs_) {
        const auto &profile = job.work.profile();
        const auto phase = profile.phaseAt(t);
        for (const auto &p : job.placement) {
            server_->chip(p.socket).setLoad(
                p.core,
                chip::CoreLoad::running(
                    profile.intensity * phase.intensityScale,
                    profile.didtTypicalAmp, profile.didtWorstAmp));
        }
    }
}

bool
WorkloadSimulation::anyPhased() const
{
    for (const auto &job : jobs_) {
        if (!job.work.profile().phases.empty())
            return true;
    }
    return false;
}

Instructions
WorkloadSimulation::stepJobProgress(size_t jobIndex, Seconds t, Seconds dt)
{
    const Job &job = jobs_[jobIndex];
    const double rateScale = job.work.profile().phaseAt(t).rateScale;
    std::set<size_t> socketsUsed;
    for (const auto &p : job.placement)
        socketsUsed.insert(p.socket);
    const bool spans = socketsUsed.size() > 1;

    Instructions instructions;
    for (const auto &p : job.placement) {
        const chip::Chip &c = server_->chip(p.socket);
        workload::PlacementContext ctx;
        ctx.totalThreads = job.placement.size();
        ctx.threadsOnChip = activeThreadsOnSocket(p.socket);
        ctx.spansChips = spans;
        ctx.coresPerChip = c.coreCount();
        const Hertz f = c.coreFrequency(p.core);
        InstrPerSec rate = job.work.threadRate(ctx, f) * rateScale;
        // Worst-case droop responses stall the core briefly.
        const double stallFraction =
            std::min(1.0, c.droopStall(p.core) / dt);
        rate *= (1.0 - stallFraction);
        instructions += rate * dt;
    }
    return instructions;
}

RunMetrics
WorkloadSimulation::run(const SimulationConfig &config)
{
    fatalIf(jobs_.empty(), "simulation needs at least one job");
    fatalIf(config.dt <= Seconds{0.0}, "simulation dt must be positive");
    fatalIf(config.maxDuration <= Seconds{0.0}, "maxDuration must be positive");

    applyLoads(Seconds{});
    progress_.assign(jobs_.size(), Instructions{});
    const bool phased = anyPhased();

    // Warm-up: run the platform with loads applied, no accounting.
    const int warmupSteps = int(config.warmup / config.dt);
    Seconds wallClock;
    for (int i = 0; i < warmupSteps; ++i) {
        if (phased)
            applyLoads(wallClock);
        server_->step(config.dt);
        wallClock += config.dt;
    }

    const size_t sockets = server_->socketCount();
    std::vector<stats::Accumulator> socketPower(sockets);
    std::vector<stats::Accumulator> socketUndervolt(sockets);
    std::vector<stats::Accumulator> socketSetpoint(sockets);
    stats::Accumulator freqMean;
    stats::Accumulator freqMin;
    stats::Accumulator chipMips;
    pdn::DropDecomposition decompositionSum;

    RunMetrics metrics;
    metrics.jobs.resize(jobs_.size());
    for (size_t j = 0; j < jobs_.size(); ++j)
        metrics.jobs[j].label = jobs_[j].label;

    Seconds elapsed;
    Joules energy;
    size_t steps = 0;
    const bool rateMode = config.measureDuration > Seconds{0.0};
    const Seconds horizon = rateMode
        ? std::min(config.measureDuration, config.maxDuration)
        : config.maxDuration;

    while (elapsed < horizon) {
        if (phased)
            applyLoads(wallClock);
        server_->step(config.dt);
        elapsed += config.dt;
        wallClock += config.dt;
        ++steps;

        Instructions stepInstructions;
        for (size_t j = 0; j < jobs_.size(); ++j) {
            const Instructions instr =
                stepJobProgress(j, wallClock, config.dt);
            progress_[j] += instr;
            metrics.jobs[j].instructions += instr;
            stepInstructions += instr;
            if (!metrics.jobs[j].completed &&
                progress_[j] >=
                    jobs_[j].work.totalWork(jobs_[j].placement.size())) {
                metrics.jobs[j].completed = true;
                metrics.jobs[j].completionTime = elapsed;
            }
        }

        for (size_t s = 0; s < sockets; ++s) {
            const chip::Chip &c = server_->chip(s);
            socketPower[s].add(c.power().value());
            socketUndervolt[s].add(c.undervoltAmount().value());
            socketSetpoint[s].add(c.setpoint().value());
            energy += c.power() * config.dt;
        }
        const chip::Chip &c0 = server_->chip(0);
        freqMean.add(c0.meanActiveFrequency().value());
        freqMin.add(c0.minActiveFrequency().value());
        decompositionSum = decompositionSum + c0.decomposition(0);
        chipMips.add((stepInstructions / config.dt).value() * 1e-6);

        if (!rateMode && metrics.jobs[0].completed)
            break;
    }

    metrics.executionTime = elapsed;
    metrics.chipEnergy = energy;
    metrics.edp = energy * elapsed;
    metrics.socketPower.resize(sockets);
    metrics.socketUndervolt.resize(sockets);
    metrics.socketSetpoint.resize(sockets);
    for (size_t s = 0; s < sockets; ++s) {
        metrics.socketPower[s] = Watts{socketPower[s].mean()};
        metrics.socketUndervolt[s] = Volts{socketUndervolt[s].mean()};
        metrics.socketSetpoint[s] = Volts{socketSetpoint[s].mean()};
        metrics.totalChipPower += metrics.socketPower[s];
    }
    metrics.meanFrequency = Hertz{freqMean.mean()};
    metrics.minFrequency = Hertz{freqMin.mean()};
    if (steps > 0)
        metrics.meanDecomposition = decompositionSum.scaled(1.0 /
                                                            double(steps));
    metrics.meanChipMips = chipMips.mean();
    for (size_t j = 0; j < jobs_.size(); ++j) {
        metrics.jobs[j].meanRate = elapsed > Seconds{0.0}
            ? metrics.jobs[j].instructions / elapsed
            : InstrPerSec{};
    }
    return metrics;
}

std::vector<ThreadPlacement>
placeOnSocket(size_t socket, size_t threads)
{
    std::vector<ThreadPlacement> placement;
    placement.reserve(threads);
    for (size_t t = 0; t < threads; ++t)
        placement.push_back(ThreadPlacement{socket, t});
    return placement;
}

} // namespace agsim::system
