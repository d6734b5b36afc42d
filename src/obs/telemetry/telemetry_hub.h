/**
 * @file
 * TelemetryHub: the live fleet telemetry plane.
 *
 * One hub per run wires the streaming pieces together:
 *
 *  - named time series, each sharded into single-writer
 *    TimeSeriesBuffer lanes so FleetStepper worker threads record
 *    without locks (one shard per chip-shard, merged on read);
 *  - per-shard mergeable QuantileSketches for the same series, giving
 *    cheap p50/p99 over the full run without retaining samples;
 *  - an SloEngine evaluated on the sample cadence against the merged
 *    series; its fire/resolve edges become stream alert lines;
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
 * Threading: declareSeries() and tick() belong to the control thread,
 * between fleet sweeps. record(id, shard, ...) is safe from worker
 * threads as long as each (id, shard) lane has one writer — the
 * FleetStepper aligns its thread ranges to shard boundaries to keep
 * that true.
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
     * Declare a named series with `shards` single-writer lanes.
     * Control-thread only, before workers start recording. Declaring
     * an existing name again returns the same id (shards must match).
     */
    AG_CONTROL_THREAD
    SeriesId declareSeries(const std::string &name, size_t shards = 1);

    /**
     * Lock-free sample write into one shard lane. The single-writer
     * contract (one thread per (id, shard) lane) is what makes the
     * lockless TimeSeriesBuffer sound; tools/lint.py's single-writer
     * check pins the caller set to the owning shard sweeps.
     */
    AG_SINGLE_WRITER("src/system/fleet_stepper.cc,"
                     "src/system/fleet_service.cc,"
                     "src/recovery/recovery_manager.cc")
    void record(SeriesId id, size_t shard, Seconds t, double value)
    {
        if (!config_.enabled)
            return;
        Series &series = *series_[id];
        series.buffers[shard].record(t, value);
        series.sketches[shard].add(value);
    }

    /** Merged view across shards; empty series if the name is unknown. */
    MergedSeries merged(const std::string &name) const;
    MergedSeries merged(SeriesId id) const;

    /** Cross-shard quantile sketch for a series. */
    stats::QuantileSketch mergedSketch(SeriesId id) const;

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
        std::vector<TimeSeriesBuffer> buffers;
        std::vector<stats::QuantileSketch> sketches;
    };

    void writeSampleLines(Seconds now);

    TelemetryConfig config_;
    std::vector<std::unique_ptr<Series>> series_;
    std::map<std::string, SeriesId> byName_;
    SloEngine slo_;
    std::unique_ptr<FlightRecorder> recorder_;
    StreamExporter stream_;
    Seconds nextTickAt_ = Seconds{0.0};
};

} // namespace agsim::obs::telemetry

#endif // AGSIM_OBS_TELEMETRY_TELEMETRY_HUB_H
