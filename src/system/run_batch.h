/**
 * @file
 * Parallel experiment runner: executes independent full simulations
 * concurrently as one StealPool sweep over task indices.
 *
 * Every paper figure replays many *independent* runs back-to-back
 * (frequency sweeps, core-count sweeps, workload libraries, mapping
 * policies). Each run owns a private Server + WorkloadSimulation, so
 * they parallelize embarrassingly; this module supplies the harness:
 *
 *  - BatchTask: a self-contained run description. The worker thread
 *    constructs the Server (from the task's ServerConfig, which carries
 *    the deterministic seed), adds the jobs, applies gating, runs the
 *    simulation, and snapshots the end state. Nothing is shared between
 *    tasks, so results are bit-identical to serial execution regardless
 *    of worker count or completion order.
 *  - BatchRunner::runAll: run a vector of tasks on a transient
 *    StealPool (system/steal_pool.h, the tree's one executor),
 *    catching each task's exception into its own slot and rethrowing
 *    the first in submission order once the whole sweep has run.
 *    Results come back in submission order; `workers == 1` runs
 *    inline on the caller. There is no runner object to keep: a
 *    batch is one call. BatchRunner stays a class of static entry
 *    points only because the agbench/ harness calls
 *    BatchRunner::runAll by that name.
 *
 * Determinism contract: a task's outcome is a pure function of the
 * BatchTask contents (all randomness is seeded through
 * ServerConfig::chipTemplate::seed). The runner never reseeds, reorders
 * side effects, or shares state across tasks, so `workers == 1` and
 * `workers == N` produce identical results.
 */

#ifndef AGSIM_SYSTEM_RUN_BATCH_H
#define AGSIM_SYSTEM_RUN_BATCH_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "chip/chip_health.h"
#include "fault/fault_plan.h"
#include "system/simulation.h"

namespace agsim::system {

/**
 * One self-contained experiment: everything a worker needs to build and
 * run a simulation from scratch.
 */
struct BatchTask
{
    /** Platform to construct (carries the deterministic seed). */
    ServerConfig serverConfig;
    /** Engine knobs for the run. */
    SimulationConfig simConfig;
    /** Guardband mode applied to every socket before the run. */
    chip::GuardbandMode mode = chip::GuardbandMode::StaticGuardband;
    /** Jobs to schedule (placements must be disjoint). */
    std::vector<Job> jobs;
    /** Cores to power-gate for the run: (socket, core). */
    std::vector<std::pair<size_t, size_t>> gatedCores;
    /**
     * Fault plans to inject, one per targeted socket. Plans are part
     * of the task value, so the determinism contract extends to
     * fault-injected runs: (task, seed) fully determines the outcome.
     */
    std::vector<std::pair<size_t, fault::FaultPlan>> faultPlans;
    /** Caller's tag, copied into the result. */
    std::string label;
};

/** Outcome of one BatchTask. */
struct BatchResult
{
    /** Tag from the task. */
    std::string label;
    /** Run metrics (identical to a serial WorkloadSimulation::run). */
    RunMetrics metrics;
    /**
     * Final per-socket, per-core clock frequency after the measured
     * phase (what `server.chip(s).coreFrequency(c)` would report; the
     * Fig. 18 scheduling loop reads this).
     */
    std::vector<std::vector<Hertz>> finalCoreFrequency;
    /**
     * Final per-socket safety telemetry (one view per socket) — what
     * a health-aware scheduler reads between quanta to steer the next
     * round's placement (core::HealthAwarePlacer).
     */
    std::vector<chip::ChipHealthView> finalHealth;
    /** Host wall-clock seconds this task took to execute. */
    Seconds wallTime = Seconds{0.0};
};

/**
 * Execute one task synchronously on the calling thread.
 *
 * This is the single execution path: every BatchRunner sweep task calls
 * exactly this function, which is what guarantees serial/parallel
 * parity.
 */
BatchResult runBatchTask(const BatchTask &task);

/**
 * Batch entry points (static only; a batch is one call).
 *
 * Usage:
 *   std::vector<BatchResult> results =
 *       BatchRunner::runAll(std::move(tasks), 4);
 */
class BatchRunner
{
  public:
    BatchRunner() = delete;

    /** Default pool size: the machine's hardware concurrency (>= 1). */
    static size_t hardwareWorkers();

    /**
     * Run `tasks` and return results in submission order. Every task
     * runs even if one throws; the first failure in submission order
     * is then rethrown and the results are discarded — right for
     * sweeps where any failure invalidates the figure. `workers == 0`
     * means hardwareWorkers(); `workers == 1` executes inline on the
     * calling thread (no pool), which is byte-for-byte the serial path.
     */
    static std::vector<BatchResult> runAll(std::vector<BatchTask> tasks,
                                           size_t workers = 0);
};

} // namespace agsim::system

#endif // AGSIM_SYSTEM_RUN_BATCH_H
