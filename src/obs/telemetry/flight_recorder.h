/**
 * @file
 * Flight recorder: pre/post trace-event captures around failure edges.
 *
 * The bounded trace ring answers "what happened recently", but by the
 * time a post-mortem starts, a busy fleet has usually overwritten the
 * events that mattered. The flight recorder keeps its own short
 * high-resolution pre-window of every emitted event (fed by the obs
 * event tap, so it sees events before the ring can drop them) and, on
 * a trigger edge — server failure, degradation step, SLO alert fire —
 * freezes that pre-window, keeps recording for a post-window, then
 * writes the combined capture as a self-contained JSONL dump: one
 * metadata header line followed by one traceEventJson line per event.
 *
 * One capture is in flight at a time; triggers during a capture are
 * absorbed by it (the storm that follows a failure belongs in the same
 * dump). Dump count is bounded so a flapping fleet cannot fill a disk.
 *
 * Thread-safety: observe() may be called from any emitting thread;
 * trigger()/tick()/accessors are expected from the control thread.
 * Dumps are written (and the FlightDump event emitted) outside the
 * internal lock, so the event tap can safely feed observe() back.
 */

#ifndef AGSIM_OBS_TELEMETRY_FLIGHT_RECORDER_H
#define AGSIM_OBS_TELEMETRY_FLIGHT_RECORDER_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "obs/trace.h"

namespace agsim::obs::telemetry {

/** Flight-recorder tuning. */
struct FlightRecorderConfig
{
    /** Events this far before the trigger are kept in the dump. */
    Seconds preWindow = Seconds{0.1};
    /** Recording continues this far past the trigger. */
    Seconds postWindow = Seconds{0.05};
    /** Directory dumps are written into (must exist). */
    std::string dir = ".";
    /** Hard cap on dumps per run. */
    size_t maxDumps = 16;
};

/** One finished capture. */
struct FlightDump
{
    /** Path of the JSONL file written (empty if the write failed). */
    std::string path;
    /** What pulled the trigger ("server_failure:crash", "slo:..."). */
    std::string reason;
    Seconds triggerTime = Seconds{0.0};
    /** Capture window actually covered. */
    Seconds windowStart = Seconds{0.0};
    Seconds windowEnd = Seconds{0.0};
    /** Events included. */
    size_t events = 0;
};

class FlightRecorder
{
  public:
    explicit FlightRecorder(FlightRecorderConfig config);

    /**
     * Feed one event (hook this to obs::setEventTap). Auto-triggers on
     * ServerFailure and DegradationStep; every other kind, FlightDump
     * included, is recorded but never triggers.
     */
    void observe(const TraceEvent &event);

    /** Manually pull the trigger (e.g. from an SLO alert callback). */
    void trigger(const std::string &reason, Seconds when);

    /**
     * Advance recorder time; closes the open capture once `now` passes
     * trigger + postWindow and writes the dump file. Call on the
     * telemetry sample cadence.
     */
    void tick(Seconds now);

    /** Whether a capture is currently open. */
    bool capturing() const;

    /** Finished captures, oldest first. */
    std::vector<FlightDump> dumps() const;

    /** Triggers ignored because a capture was open or the cap was hit. */
    uint64_t suppressedTriggers() const;

    const FlightRecorderConfig &config() const { return config_; }

  private:
    /** Start a capture if none is open and the dump budget remains. */
    void armLocked(const std::string &reason, Seconds when)
        AG_REQUIRES(mutex_);

    /** Drop ring events older than the pre-window. */
    void pruneLocked(Seconds now) AG_REQUIRES(mutex_);

    /** Close the open capture; returns the dump to write. */
    bool finalize(Seconds now, FlightDump &dump,
                  std::vector<TraceEvent> &events) AG_EXCLUDES(mutex_);

    const FlightRecorderConfig config_;

    mutable ag::Mutex mutex_;
    std::deque<TraceEvent> ring_ AG_GUARDED_BY(mutex_);
    bool capturing_ AG_GUARDED_BY(mutex_) = false;
    std::string reason_ AG_GUARDED_BY(mutex_);
    Seconds triggerTime_ AG_GUARDED_BY(mutex_) = Seconds{0.0};
    std::vector<FlightDump> dumps_ AG_GUARDED_BY(mutex_);
    /**
     * Captures finalized so far, committed inside finalize() while the
     * dump file is still being written. The maxDumps budget is checked
     * against this, not dumps_.size(): the push into dumps_ happens
     * only after the unlocked file write, and a trigger arriving in
     * that window would otherwise see an undercount and overrun the
     * cap.
     */
    size_t dumpsTaken_ AG_GUARDED_BY(mutex_) = 0;
    uint64_t suppressed_ AG_GUARDED_BY(mutex_) = 0;
    uint64_t sequence_ AG_GUARDED_BY(mutex_) = 0;
};

} // namespace agsim::obs::telemetry

#endif // AGSIM_OBS_TELEMETRY_FLIGHT_RECORDER_H
