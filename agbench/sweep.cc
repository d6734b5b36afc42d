/**
 * @file
 * The figure-sweep workload: the Fig. 13 and Fig. 14 spec sets
 * (loadline borrowing across core counts, and across every workload of
 * the library at eight cores), lowered through core::makeBatchTask and
 * run by system::BatchRunner::runAll with two jobs. One round is one
 * whole sweep; each scheduled experiment is one operation, timed by
 * its BatchResult::wallTime.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "bench_stats.h"
#include "core/ags.h"
#include "host.h"
#include "obs/observability.h"
#include "system/run_batch.h"
#include "workload/library.h"
#include "workloads.h"

namespace agbench {

using namespace agsim;

namespace {

constexpr size_t kJobs = 2;
/** Set-up repeats per round: lowering the spec set takes < 1 ms. */
constexpr int kSetupRepeats = 9;

core::ScheduledRunSpec
borrowingSpec(const workload::BenchmarkProfile &profile, size_t threads,
              core::PlacementPolicy policy, chip::GuardbandMode mode,
              uint64_t seed)
{
    core::ScheduledRunSpec spec;
    spec.profile = profile;
    spec.threads = threads;
    spec.mode = mode;
    spec.policy = policy;
    spec.poweredCoreBudget = 8;
    spec.simConfig.measureDuration = Seconds{1.0};
    spec.simConfig.warmup = Seconds{1.0};
    spec.serverConfig.chipTemplate.seed = seed;
    return spec;
}

struct SpecSet
{
    std::vector<core::ScheduledRunSpec> specs;
    /** Index of the first Fig. 14 spec; pairs (consolidate, borrow). */
    size_t fig14Begin = 0;
};

SpecSet
makeSpecs(uint64_t seed)
{
    using chip::GuardbandMode;
    using core::PlacementPolicy;
    SpecSet set;
    const uint64_t chipSeed = deriveSeed(seed, 4);
    for (const auto &profile : workload::scalableSet()) {
        for (size_t threads : {1, 2, 4, 8}) {
            set.specs.push_back(borrowingSpec(
                profile, threads, PlacementPolicy::Consolidate,
                GuardbandMode::StaticGuardband, chipSeed));
            set.specs.push_back(borrowingSpec(
                profile, threads, PlacementPolicy::Consolidate,
                GuardbandMode::AdaptiveUndervolt, chipSeed));
            set.specs.push_back(borrowingSpec(
                profile, threads, PlacementPolicy::LoadlineBorrow,
                GuardbandMode::AdaptiveUndervolt, chipSeed));
        }
    }
    set.fig14Begin = set.specs.size();
    for (const auto &profile : workload::library()) {
        if (profile.suite == workload::Suite::Coremark ||
            profile.suite == workload::Suite::Datacenter)
            continue;
        const auto mode = profile.serialFraction > 0.0
                              ? workload::RunMode::Multithreaded
                              : workload::RunMode::Rate;
        for (auto policy : {PlacementPolicy::Consolidate,
                            PlacementPolicy::LoadlineBorrow}) {
            auto spec = borrowingSpec(profile, 8, policy,
                                      GuardbandMode::AdaptiveUndervolt,
                                      chipSeed);
            spec.runMode = mode;
            set.specs.push_back(spec);
        }
    }
    return set;
}

/** Lower every spec; returns the host seconds it took. */
double
lower(const SpecSet &set, std::vector<system::BatchTask> &tasks,
      SpanRecorder &spans)
{
    tasks.clear();
    tasks.reserve(set.specs.size());
    const double t0 = wallNow();
    for (const core::ScheduledRunSpec &spec : set.specs) {
        ScopedSpan span(spans, "core::makeBatchTask");
        tasks.push_back(core::makeBatchTask(spec));
    }
    return wallNow() - t0;
}

/** FNV-1a over the bits of a double. */
uint64_t
mix(uint64_t hash, double value)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
        hash ^= (bits >> (8 * i)) & 0xFFu;
        hash *= 0x100000001B3ull;
    }
    return hash;
}

struct SweepRound
{
    uint64_t digest = 0xCBF29CE484222325ull;
    std::vector<double> taskMs;
    double batchS = 0.0;
    double chipSteps = 0.0;
    double cpuS = 0.0;
    /** Host seconds of each lowering of the spec set. */
    std::vector<double> setupS;
    double meanPowerGainPct = 0.0;
};

SweepRound
runRound(const SpecSet &set, size_t jobs, RunReport &report,
         SpanRecorder &spans)
{
    ScopedSpan roundSpan(spans, "round");
    SweepRound r;
    std::vector<system::BatchTask> tasks;
    for (int k = 0; k < kSetupRepeats; ++k)
        r.setupS.push_back(lower(set, tasks, spans));

    const double steps0 = socketCounter("chip.steps");
    const double cpu0 = processCpuNow();
    const double t0 = wallNow();
    std::vector<system::BatchResult> results;
    report.attempted += tasks.size();
    try {
        ScopedSpan span(spans, "BatchRunner::runAll");
        results = system::BatchRunner::runAll(std::move(tasks), jobs);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "sweep threw: %s\n", e.what());
        report.failed += set.specs.size();
        return r;
    }
    r.batchS = wallNow() - t0;
    r.cpuS = processCpuNow() - cpu0;
    r.chipSteps = socketCounter("chip.steps") - steps0;

    for (const system::BatchResult &b : results) {
        const double power = b.metrics.totalChipPower.value();
        const double rate =
            b.metrics.jobs.empty() ? 0.0 : b.metrics.jobs[0].meanRate.value();
        const double time = b.metrics.executionTime.value();
        const bool ok = std::isfinite(power) && power > 0.0 &&
                        std::isfinite(rate) && rate > 0.0 &&
                        std::isfinite(time) && time > 0.0;
        if (!ok)
            ++report.failed;
        r.taskMs.push_back(b.wallTime.value() * 1e3);
        r.digest = mix(mix(mix(r.digest, power), rate), time);
        for (const auto &socket : b.finalCoreFrequency)
            for (Hertz f : socket)
                r.digest = mix(r.digest, f.value());
    }
    report.check(results.size() == set.specs.size(),
                 "one result per spec");

    // Fig. 14's sign: borrowing lowers mean chip power vs consolidation.
    double gain = 0.0;
    size_t pairs = 0;
    for (size_t i = set.fig14Begin; i + 1 < results.size(); i += 2) {
        gain += 1.0 - results[i + 1].metrics.totalChipPower.value() /
                          results[i].metrics.totalChipPower.value();
        ++pairs;
    }
    r.meanPowerGainPct = 100.0 * gain / double(pairs);
    report.check(r.meanPowerGainPct > 0.0,
                 "loadline borrowing lowers mean chip power");
    return r;
}

/**
 * Time the public step phases on copies of the sweep's servers: a few
 * experiments are rebuilt from their tasks, run through a short
 * warm-up so the workload's loads are applied, then stepped phase by
 * phase.
 */
PhaseNs
timeCopies(const SpecSet &set, SpanRecorder &spans)
{
    ScopedSpan span(spans, "copy.servers");
    std::vector<std::unique_ptr<system::Server>> servers;
    std::vector<chip::Chip *> chips;
    for (size_t i = 0; i < set.specs.size(); i += 24) {
        const system::BatchTask task = core::makeBatchTask(set.specs[i]);
        servers.push_back(
            std::make_unique<system::Server>(task.serverConfig));
        system::Server &server = *servers.back();
        server.setMode(task.mode);
        system::WorkloadSimulation sim(&server);
        for (const auto &job : task.jobs)
            sim.addJob(job);
        for (const auto &[socket, core] : task.gatedCores)
            sim.gateCore(socket, core);
        system::SimulationConfig warm = task.simConfig;
        warm.warmup = Seconds{0.05};
        warm.measureDuration = Seconds{0.01};
        sim.run(warm);
        for (chip::Chip *c : server.chips())
            chips.push_back(c);
    }
    return timeStepPhases(chips, 200, Seconds{1e-3}, spans);
}

} // namespace

void
runSweep(const RunOptions &options, RunReport &report, SpanRecorder &spans)
{
    const SpecSet set = makeSpecs(options.seed);
    uint64_t reference = 0;
    std::vector<double> plainOps;
    const double budget =
        options.traced ? options.seconds / 4.0 : options.seconds;
    const double start = wallNow();
    do {
        const SweepRound r = runRound(set, kJobs, report, spans);
        if (report.roundCpuS.empty())
            reference = r.digest;
        report.check(r.digest == reference,
                     "every sweep reproduces the first sweep's results");
        report.opMs.insert(report.opMs.end(), r.taskMs.begin(),
                           r.taskMs.end());
        report.roundChipStepsPerS.push_back(r.chipSteps / r.batchS);
        report.roundCpuS.push_back(r.cpuS);
        report.setupS.insert(report.setupS.end(), r.setupS.begin(),
                             r.setupS.end());
        std::fprintf(stderr, "fig14 mean power improvement: %.2f%%\n",
                     r.meanPowerGainPct);
    } while (wallNow() - start < budget);
    if (!options.traced)
        return;

    obs::setProfilingEnabled(true);
    spans.setEnabled(true);
    std::vector<SweepRound> traced;
    const double chipNs0[3] = {socketTimerNs("chip.step.solver"),
                               socketTimerNs("chip.step.firmware"),
                               socketTimerNs("chip.step.telemetry")};
    const double tracedStart = wallNow();
    do {
        traced.push_back(runRound(set, kJobs, report, spans));
        report.check(traced.back().digest == reference,
                     "profiling leaves the sweep results unchanged");
    } while (wallNow() - tracedStart < options.seconds / 4.0);
    const double chipNs[3] = {
        socketTimerNs("chip.step.solver") - chipNs0[0],
        socketTimerNs("chip.step.firmware") - chipNs0[1],
        socketTimerNs("chip.step.telemetry") - chipNs0[2]};
    const PhaseNs phases = timeCopies(set, spans);
    spans.setEnabled(false);
    obs::setProfilingEnabled(false);

    const SweepRound serial = runRound(set, 1, report, spans);
    report.check(serial.digest == reference,
                 "sweep results bit-identical for jobs=1 and jobs=2");

    std::map<std::string, double> &L = report.layer;
    double steps = 0.0, taskS = 0.0, batchS = 0.0;
    std::vector<double> tracedOps;
    for (const SweepRound &r : traced) {
        steps += r.chipSteps;
        batchS += r.batchS;
        for (double ms : r.taskMs)
            taskS += ms * 1e-3;
        tracedOps.insert(tracedOps.end(), r.taskMs.begin(),
                         r.taskMs.end());
    }
    // Against the last untraced sweep, the one next to the traced ones
    // (host speed drifts over a run).
    const size_t last = std::min(set.specs.size(), report.opMs.size());
    const std::vector<double> lastPlain(report.opMs.end() - ptrdiff_t(last),
                                        report.opMs.end());
    L["trace.overhead_pct"] = 100.0 * (percentile(tracedOps, 0.5) /
                                           percentile(lastPlain, 0.5) -
                                       1.0);
    L["chip.solver_ns"] = chipNs[0] / steps;
    L["chip.firmware_ns"] = chipNs[1] / steps;
    L["chip.telemetry_ns"] = chipNs[2] / steps;
    L["chip.sense_ns"] = phases.sense;
    L["chip.control_ns"] = phases.control;
    L["chip.commit_ns"] = phases.commit;
    L["core.plan_ms"] =
        percentile(report.setupS, 0.5) / double(set.specs.size()) * 1e3;
    L["batch.task_ms_p50"] = percentile(tracedOps, 0.5);
    L["batch.task_ms_max"] = percentile(tracedOps, 1.0);
    L["batch.worker_busy_share"] = taskS / (double(kJobs) * batchS);
}

} // namespace agbench
