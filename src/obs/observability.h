/**
 * @file
 * Process-global observability context.
 *
 * One registry and one trace recorder serve the whole process, so
 * instrumented components (Chip, BatchRunner, the mapping loop) need no
 * plumbing: they read two relaxed atomic gates and, when enabled, write
 * into the shared sinks. The gates default to OFF, which is the whole
 * overhead story:
 *
 *  - tracing off:   every would-be event costs one atomic bool load;
 *  - profiling off: every ScopedTimer costs one atomic bool load;
 *  - counters:      always live — a relaxed fetch_add (~1 ns) per rare
 *                   control event, negligible against a ~µs step.
 *
 * bench/perf_steps measures and reports the enabled-vs-disabled delta.
 *
 * Batch-task identity: BatchRunner workers (and the serial fallback)
 * wrap task execution in a TaskIdScope; events emitted anywhere down
 * the stack — including Chip internals — pick up the current task id
 * from thread-local state, so parallel tasks' timelines stay separable
 * in the exported trace.
 *
 * The global registry and recorder are intentionally leaked (immortal):
 * instrument handles and static-local counter references in model code
 * stay valid through process shutdown.
 */

#ifndef AGSIM_OBS_OBSERVABILITY_H
#define AGSIM_OBS_OBSERVABILITY_H

#include <cstdint>
#include <functional>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace agsim::obs {

/** The process-wide metric registry (immortal). */
MetricRegistry &registry();

/** The process-wide trace recorder (immortal). */
TraceRecorder &trace();

/** Whether structured event tracing is on (default off). */
bool tracingEnabled();
void setTracingEnabled(bool enabled);

/** Whether wall-clock profiling timers are on (default off). */
bool profilingEnabled();
void setProfilingEnabled(bool enabled);

/** Batch-task id attributed to events emitted by this thread. */
int32_t currentTaskId();

/** RAII: set this thread's task id, restoring the previous on exit. */
class TaskIdScope
{
  public:
    explicit TaskIdScope(int32_t id);
    ~TaskIdScope();

    TaskIdScope(const TaskIdScope &) = delete;
    TaskIdScope &operator=(const TaskIdScope &) = delete;

  private:
    int32_t saved_;
};

/**
 * Record an event if tracing is enabled, stamping the current task id.
 * The tracing gate is checked here so call sites stay one-liners.
 */
void emit(TraceEvent event);

/**
 * Live event tap for the streaming telemetry plane: when installed
 * (and tracing is enabled), every emitted event is also handed to the
 * tap *before* entering the bounded ring — this is how the flight
 * recorder sees events the ring may later overwrite. The tap runs on
 * the emitting thread (possibly a batch/fleet worker) and must be
 * thread-safe; it must never feed back into simulation state. Install
 * an empty function to clear. One tap at a time (last install wins).
 */
void setEventTap(std::function<void(const TraceEvent &)> tap);

/**
 * Test/bench hygiene: clear the recorder, zero every metric, disable
 * tracing and profiling. Handles stay valid.
 */
void resetAll();

} // namespace agsim::obs

#endif // AGSIM_OBS_OBSERVABILITY_H
