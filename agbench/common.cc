#include <chrono>
#include <string>

#include "bench_stats.h"
#include "obs/observability.h"
#include "workloads.h"

namespace agbench {

using namespace agsim;

namespace {

const obs::MetricLabels &
socketLabels(int socket)
{
    static const obs::MetricLabels labels[2] = {{{"socket", "0"}},
                                                {{"socket", "1"}}};
    return labels[socket];
}

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

double
socketTimerNs(const char *name)
{
    obs::MetricRegistry &reg = obs::registry();
    return double(reg.timer(name, socketLabels(0)).nanos->value() +
                  reg.timer(name, socketLabels(1)).nanos->value());
}

double
socketCounter(const char *name)
{
    obs::MetricRegistry &reg = obs::registry();
    return double(reg.counter(name, socketLabels(0)).value() +
                  reg.counter(name, socketLabels(1)).value());
}

PhaseNs
timeStepPhases(const std::vector<chip::Chip *> &chips, int64_t ticks,
               Seconds dt, SpanRecorder &spans)
{
    // Per-tick phase times; the median keeps a host hiccup in one tick
    // out of the result.
    std::vector<double> ns[3];
    for (int64_t t = 0; t < ticks; ++t) {
        const int64_t a = steadyNs();
        {
            ScopedSpan span(spans, "Chip::stepSensePhase");
            for (chip::Chip *c : chips)
                c->stepSensePhase(dt);
        }
        const int64_t b = steadyNs();
        {
            ScopedSpan span(spans, "Chip::stepControlPhase");
            for (chip::Chip *c : chips)
                c->stepControlPhase(dt);
        }
        const int64_t c = steadyNs();
        {
            ScopedSpan span(spans, "Chip::stepCommitPhase");
            for (chip::Chip *chip : chips)
                chip->stepCommitPhase(dt);
        }
        const int64_t d = steadyNs();
        ns[0].push_back(double(b - a));
        ns[1].push_back(double(c - b));
        ns[2].push_back(double(d - c));
    }
    const double n = double(chips.size());
    return {percentile(ns[0], 0.5) / n, percentile(ns[1], 0.5) / n,
            percentile(ns[2], 0.5) / n};
}

void
declareLayerMetrics(RunReport &report)
{
    static const char *const names[] = {
        "service.control_ms_per_quantum",
        "setup.construct_s",
        "setup.start_s",
        "stepper.sweep_ms_per_quantum",
        "stepper.exact_steps",
        "stepper.ff_ticks",
        "stepper.ff_fraction",
        "pool.steals",
        "pool.worker_busy_s",
        "pool.barrier_idle_share",
        "pool.speedup_vs_serial",
        "chip.solver_ns",
        "chip.firmware_ns",
        "chip.telemetry_ns",
        "chip.sense_ns",
        "chip.control_ns",
        "chip.commit_ns",
        "placement.decisions",
        "placement.migrations",
        "service.placements",
        "queue.arrived",
        "queue.completed",
        "queue.shed",
        "queue.migrated",
        "core.plan_ms",
        "recovery.failures",
        "recovery.checkpoints",
        "recovery.restores",
        "recovery.migrations",
        "telemetry.overhead_pct",
        "batch.task_ms_p50",
        "batch.task_ms_max",
        "batch.worker_busy_share",
        "trace.overhead_pct",
    };
    for (const char *name : names)
        report.layer[name] = 0.0;
}

} // namespace agbench
