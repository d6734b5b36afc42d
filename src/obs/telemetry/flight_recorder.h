/**
 * @file
 * Flight recorder: pre/post trace-event captures around failure edges.
 *
 * The recorder is a control-thread reader of the process trace ring
 * (obs::trace()); it keeps no events of its own. Each tick() scans the
 * events recorded since the previous tick and arms a capture on a
 * trigger edge — a server failure, a degradation-ladder step or an SLO
 * alert firing. Once the post-window has passed, the capture's events
 * are read back from the ring, filtered to [trigger - pre-window,
 * trigger + post-window] (100 ms before, 50 ms after), time-sorted
 * and written as a self-contained JSONL dump: one metadata header line
 * followed by one traceEventJson line per event. Only events recorded
 * after the recorder was built reach its dumps.
 *
 * One capture is in flight at a time; triggers during a capture are
 * absorbed by it (the storm that follows a failure belongs in the same
 * dump). At most 16 dumps are written, so a flapping fleet cannot fill
 * a disk.
 *
 * Threading: every member runs on the control thread, between fleet
 * sweeps. Workers only write the trace ring, which has its own lock.
 */

#ifndef AGSIM_OBS_TELEMETRY_FLIGHT_RECORDER_H
#define AGSIM_OBS_TELEMETRY_FLIGHT_RECORDER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/trace.h"

namespace agsim::obs::telemetry {

/** Flight-recorder deployment settings. */
struct FlightRecorderConfig
{
    /** Directory dumps are written into (must exist). */
    std::string dir = ".";
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
     * Scan the trace events recorded since the last tick, in record
     * order, arming on ServerFailure, DegradationStep and SloAlert
     * "fire:" events; then, once `now` passes trigger + post-window,
     * write the open capture's dump and return it. Call on the
     * telemetry sample cadence.
     */
    std::optional<FlightDump> tick(Seconds now);

    /** Whether a capture is currently open. */
    bool capturing() const { return capturing_; }

    /** Finished captures, oldest first. */
    const std::vector<FlightDump> &dumps() const { return dumps_; }

    /** Triggers ignored because a capture was open or the cap was hit. */
    uint64_t suppressedTriggers() const { return suppressed_; }

  private:
    /** Start a capture if none is open and the dump budget remains. */
    void arm(std::string reason, Seconds when);

    /** Write the open capture's dump file and close the capture. */
    FlightDump finish(Seconds now);

    const FlightRecorderConfig config_;
    /** trace().recorded() at construction: the first event we own. */
    const uint64_t origin_;
    /** Sequence number of the next trace event to scan. */
    uint64_t cursor_;
    bool capturing_ = false;
    std::string reason_;
    Seconds triggerTime_ = Seconds{0.0};
    std::vector<FlightDump> dumps_;
    uint64_t suppressed_ = 0;
};

} // namespace agsim::obs::telemetry

#endif // AGSIM_OBS_TELEMETRY_FLIGHT_RECORDER_H
