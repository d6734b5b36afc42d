/**
 * @file
 * Structured event tracing for the control stack.
 *
 * The paper reads every result through AMESTER's 32 ms sensor windows;
 * the trace layer answers the complementary question — *why* a run
 * produced its numbers — by recording the discrete control events the
 * windows average away: guardband-mode transitions, firmware voltage
 * updates, DPLL droop responses, safety-monitor demotions, fault
 * activations, and batch-task lifecycles.
 *
 * Events are stamped with *simulation* time (each batch task owns its
 * own timeline, distinguished by task id), never wall-clock, and are
 * recorded into a bounded ring buffer outside all simulation state, so
 * tracing cannot perturb a run and bit-identical replay is preserved
 * (tests/test_obs_determinism.cc holds the line). When the ring wraps,
 * the oldest events are dropped and counted.
 *
 * Exporters: Chrome `trace_event` JSON (loadable in Perfetto /
 * chrome://tracing) and one-object-per-line JSONL.
 */

#ifndef AGSIM_OBS_TRACE_H
#define AGSIM_OBS_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"

namespace agsim::obs {

/** Event taxonomy (docs/OBSERVABILITY.md documents each schema). */
enum class TraceKind
{
    /** Guardband mode changed (commanded or safety-driven). a/b: old/new. */
    ModeTransition,
    /** 32 ms firmware decision point. a/b: setpoint before/after (V). */
    FirmwareTick,
    /** DPLL rode through a worst-case droop. a: stall s, b: depth V. */
    DroopResponse,
    /** Safety monitor demoted the chip. a: emergencies at trip. */
    SafetyDemotion,
    /** Safety monitor re-armed the commanded mode. */
    SafetyRearm,
    /** Injected fault set became active/inactive. a: active specs. */
    FaultChange,
    /** Batch task started. */
    TaskBegin,
    /** Batch task finished. duration: sim s, a: wall s. */
    TaskEnd,
    /** One adaptive-mapping scheduling quantum. a: violation, b: Hz. */
    Quantum,
    /** Health-aware placement decision. a: threads moved, b: healthy
     *  sockets; detail: reason. */
    PlacementDecision,
    /** Server-scope failure detected. a: server index; detail: kind. */
    ServerFailure,
    /** Server back online. a: server index, b: outage s; detail: how
     *  (restore/cold/self). */
    ServerRecovery,
    /** Fleet degradation ladder moved. a: old rung, b: new rung. */
    DegradationStep,
    /** SLO burn-rate alert edge. a: short-window burn, b: long-window
     *  burn; detail: "fire:<rule>" / "resolve:<rule>". */
    SloAlert,
    /** Flight-recorder capture written. a: events in dump; detail:
     *  dump path. */
    FlightDump,
    /** Free-form instrumentation. */
    Custom,
};

/** Stable lowercase name used in both export formats. */
const char *traceKindName(TraceKind kind);

/** One structured event. */
struct TraceEvent
{
    /** Simulation-time stamp on the owning task's timeline. */
    Seconds simTime = Seconds{0.0};
    TraceKind kind = TraceKind::Custom;
    /** Batch-task scope (0 outside a batch). */
    int32_t task = 0;
    /** Socket / chip id within the task. */
    int32_t chip = 0;
    /** Core id; -1 for chip-level events. */
    int32_t core = -1;
    /** Kind-specific numeric arguments. */
    double a = 0.0;
    double b = 0.0;
    /** >= 0 turns the event into a complete ("X") span of this length. */
    Seconds duration = Seconds{-1.0};
    /** Short human-readable annotation (mode names, task labels). */
    std::string detail;
};

/**
 * Bounded, thread-safe ring buffer of trace events.
 *
 * Recording is a mutex acquisition plus a slot assignment; events are
 * rare relative to simulation steps (firmware cadence and below), so
 * this is far off the hot path. Capacity is fixed at construction:
 * memory stays bounded for arbitrarily long runs, with the oldest
 * events overwritten first.
 */
class TraceRecorder
{
  public:
    static constexpr size_t kDefaultCapacity = 1 << 16;

    explicit TraceRecorder(size_t capacity = kDefaultCapacity);

    /** Append one event (overwrites the oldest once full). */
    void record(TraceEvent event);

    /** Chronological snapshot (oldest retained event first). */
    std::vector<TraceEvent> events() const;

    /** Events ever recorded (including dropped). */
    uint64_t recorded() const;

    /** Events lost to ring wrap-around. */
    uint64_t dropped() const;

    size_t capacity() const { return capacity_; }

    /** Discard all events and the drop count. */
    void clear();

  private:
    /** Fixed at construction; readable without mutex_ (capacity()). */
    size_t capacity_ = 0;
    mutable ag::Mutex mutex_;
    std::vector<TraceEvent> ring_ AG_GUARDED_BY(mutex_);
    size_t next_ AG_GUARDED_BY(mutex_) = 0;
    uint64_t recorded_ AG_GUARDED_BY(mutex_) = 0;
};

/**
 * Render events as a Chrome `trace_event` JSON document (the
 * {"traceEvents": [...]} form Perfetto and chrome://tracing load).
 * Timestamps are simulation microseconds; pid = batch task, tid encodes
 * chip and core. Events are sorted by (task, time) so the export is
 * deterministic regardless of worker interleaving.
 */
std::string chromeTraceJson(const std::vector<TraceEvent> &events);

/**
 * Render one event as a single flat JSON object (no trailing newline):
 * the event line format of the flight recorder's JSONL dump files.
 */
std::string traceEventJson(const TraceEvent &event);

/** Export a recorder's events to a Chrome trace file. */
bool writeChromeTrace(const TraceRecorder &recorder,
                      const std::string &path);

} // namespace agsim::obs

#endif // AGSIM_OBS_TRACE_H
