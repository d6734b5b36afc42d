/**
 * @file
 * TelemetryHub: the live fleet telemetry plane.
 *
 * One hub per run wires the streaming pieces together:
 *
 *  - named time series, one TimeSeriesBuffer each, plus one
 *    QuantileSketch per series giving cheap p50/p99 over the full run
 *    without retaining samples;
 *  - an SloEngine evaluated on the sample cadence against those
 *    buffers in place; its fire/resolve edges become stream alert
 *    lines;
 *  - an optional FlightRecorder that reads the process trace ring on
 *    the same cadence (the SLO fire events it arms on travel through
 *    that ring too); enabling it turns tracing on;
 *  - a StreamExporter appending live sample/alert/dump JSONL lines
 *    for `tools/fleetdash.py`.
 *
 * Determinism contract: the hub only *reads* simulation state via the
 * values callers push; nothing here feeds back. A disabled hub
 * (config.enabled = false) turns record() and tick() into early
 * returns, so instrumented call sites cost one branch.
 *
 * Threading: the hub is a control-thread object. declareSeries(),
 * record() and tick() all run between fleet sweeps; FleetStepper
 * workers park each chip's sample in its slot and the control thread
 * records the parked samples after the block barrier, so no worker
 * ever touches the hub.
 */

#ifndef AGSIM_OBS_TELEMETRY_TELEMETRY_HUB_H
#define AGSIM_OBS_TELEMETRY_TELEMETRY_HUB_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/units.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/telemetry/slo.h"
#include "obs/telemetry/stream_exporter.h"
#include "obs/telemetry/time_series.h"
#include "stats/quantile_sketch.h"

namespace agsim::obs::telemetry {

/** Hub tuning; defaults suit the millisecond-step fleet benches. */
struct TelemetryConfig
{
    /** Master switch; off keeps every instrumented path branch-cheap. */
    bool enabled = false;
    /** Time-series bucket width (sim seconds). */
    Seconds sampleInterval = Seconds{0.01};
    /** Streaming JSONL path ("" = no stream). */
    std::string streamPath;
    /** Stream/SLO/recorder tick cadence (defaults to sampleInterval). */
    Seconds streamInterval = Seconds{0.0};
    /** Attach a flight recorder (turns tracing on). */
    bool enableRecorder = false;
    FlightRecorderConfig recorder;
};

/** Stable handle for a declared series (index; cheap to copy). */
using SeriesId = size_t;

class TelemetryHub
{
  public:
    explicit TelemetryHub(TelemetryConfig config);

    TelemetryHub(const TelemetryHub &) = delete;
    TelemetryHub &operator=(const TelemetryHub &) = delete;

    bool enabled() const { return config_.enabled; }

    Seconds sampleInterval() const { return config_.sampleInterval; }

    /**
     * Declare a named series. Declaring an existing name again returns
     * the same id.
     */
    AG_CONTROL_THREAD
    SeriesId declareSeries(const std::string &name);

    /**
     * Lock-free sample write. The control thread is the one writer,
     * which is what makes the lockless TimeSeriesBuffer sound;
     * tools/lint.py's single-writer check pins the caller set to the
     * three control-thread owners.
     */
    AG_SINGLE_WRITER("src/system/fleet_stepper.cc,"
                     "src/system/fleet_service.cc,"
                     "src/recovery/recovery_manager.cc")
    void record(SeriesId id, Seconds t, double value)
    {
        if (!config_.enabled)
            return;
        Series &series = series_[id];
        series.buffer.record(t, value);
        series.sketch.add(value);
    }

    /** A series' buckets; null if no series has that name. */
    const TimeSeriesBuffer *series(const std::string &name) const;

    SloEngine &slo() { return slo_; }
    const SloEngine &slo() const { return slo_; }

    /** Null unless the config enabled the recorder. */
    FlightRecorder *recorder() { return recorder_.get(); }
    const FlightRecorder *recorder() const { return recorder_.get(); }

    /** Stream lines written so far (0 when not streaming). */
    uint64_t streamLines() const { return stream_.lines(); }

    /**
     * Control-thread heartbeat: on the stream cadence, evaluates SLO
     * rules, advances the flight recorder, and appends stream lines.
     */
    AG_CONTROL_THREAD
    void tick(Seconds now);

  private:
    struct Series
    {
        std::string name;
        TimeSeriesBuffer buffer;
        stats::QuantileSketch sketch;
    };

    void writeSampleLines(Seconds now);

    TelemetryConfig config_;
    std::vector<Series> series_;
    std::map<std::string, SeriesId> byName_;
    SloEngine slo_;
    std::unique_ptr<FlightRecorder> recorder_;
    StreamExporter stream_;
    Seconds nextTickAt_ = Seconds{0.0};
};

} // namespace agsim::obs::telemetry

#endif // AGSIM_OBS_TELEMETRY_TELEMETRY_HUB_H
