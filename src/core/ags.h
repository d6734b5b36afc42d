/**
 * @file
 * Top-level adaptive-guardband-scheduling facade.
 *
 * One-call experiment runner used by the examples and every bench: build
 * a fresh (deterministic) two-socket server, place a workload under a
 * placement policy, pick the guardband mode, run, and return metrics.
 * Composable pieces (Server, WorkloadSimulation, PlacementPlan) remain
 * available for callers that need multi-job or scheduler-in-the-loop
 * setups.
 */

#ifndef AGSIM_CORE_AGS_H
#define AGSIM_CORE_AGS_H

#include <cstddef>
#include <string>
#include <vector>

#include "chip/guardband_mode.h"
#include "core/placement.h"
#include "system/run_batch.h"
#include "system/simulation.h"
#include "workload/profile.h"
#include "workload/threaded_workload.h"

namespace agsim::core {

/** Everything one scheduled experiment needs. */
struct ScheduledRunSpec
{
    /** Benchmark to run. */
    workload::BenchmarkProfile profile;
    /** Threads to schedule. */
    size_t threads = 8;
    /** Multithreaded program or independent SPECrate copies. */
    workload::RunMode runMode = workload::RunMode::Multithreaded;
    /** Socket placement policy. */
    PlacementPolicy policy = PlacementPolicy::Consolidate;
    /** Guardband mode for every socket. */
    chip::GuardbandMode mode = chip::GuardbandMode::AdaptiveUndervolt;
    /**
     * Cores kept powered on (instant-response reserve). 0 means "powered
     * cores = threads on one socket, everything else powered-on idle on
     * socket 0 only" — the Sec. 3 single-socket characterization setup,
     * where no gating happens at all.
     */
    size_t poweredCoreBudget = 0;
    /** Platform configuration override. */
    system::ServerConfig serverConfig;
    /** Engine configuration. */
    system::SimulationConfig simConfig;
    /** Fault plans injected per socket (see BatchTask::faultPlans). */
    std::vector<std::pair<size_t, fault::FaultPlan>> faultPlans;
};

/** Result of one scheduled experiment. */
struct ScheduledRunResult
{
    system::RunMetrics metrics;
    PlacementPlan plan;
    /** Final per-socket safety telemetry (scheduler feedback). */
    std::vector<chip::ChipHealthView> finalHealth;
};

/**
 * Run one scheduled experiment on a fresh server.
 *
 * With poweredCoreBudget == 0 the run reproduces the paper's Sec. 3
 * methodology: threads consolidated on socket 0, all cores of both
 * sockets powered on, no gating. With a budget > 0 it reproduces the
 * Sec. 5.1 scenarios: `budget` cores stay on (placed per policy),
 * everything else power gates.
 */
ScheduledRunResult runScheduled(const ScheduledRunSpec &spec);

/**
 * Lower a spec into the self-contained system::BatchTask the parallel
 * runner executes (placement planning happens here; the task then owns
 * everything the run needs). The plan is also returned through
 * `planOut` when non-null.
 */
system::BatchTask makeBatchTask(const ScheduledRunSpec &spec,
                                PlacementPlan *planOut = nullptr);

/**
 * Run many independent scheduled experiments, `jobs` at a time, as one
 * system::BatchRunner::runAll sweep.
 *
 * Results come back in `specs` order and are bit-identical for any
 * `jobs` value: every run owns a fresh Server seeded from its own spec,
 * so parallel execution shares no state. `jobs == 0` uses the machine's
 * hardware concurrency; `jobs == 1` executes inline (the serial path).
 */
std::vector<ScheduledRunResult>
runScheduledBatch(const std::vector<ScheduledRunSpec> &specs,
                  size_t jobs = 1);

/**
 * Convenience wrapper: measure mean chip power (both sockets) for a
 * spec, using a fixed-duration rate measurement.
 */
Watts measureChipPower(const ScheduledRunSpec &spec,
                       Seconds duration = Seconds{2.0});

} // namespace agsim::core

#endif // AGSIM_CORE_AGS_H
