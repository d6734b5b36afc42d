#include "obs/telemetry/telemetry_hub.h"

#include <utility>

#include "common/error.h"
#include "obs/observability.h"

namespace agsim::obs::telemetry {

namespace {

/** Buckets retained per series. */
constexpr size_t kRingBuckets = 1024;
/** Relative accuracy of the quantile sketches. */
constexpr double kSketchAccuracy = 0.01;

} // namespace

TelemetryHub::TelemetryHub(TelemetryConfig config)
    : config_(std::move(config))
{
    fatalIf(config_.sampleInterval <= Seconds{0.0},
            "telemetry sample interval must be positive");
    if (config_.streamInterval <= Seconds{0.0})
        config_.streamInterval = config_.sampleInterval;
    if (!config_.enabled)
        return;

    if (config_.enableRecorder) {
        // The recorder reads the trace ring, which only fills while
        // tracing is on; enabling the recorder arms tracing.
        setTracingEnabled(true);
        recorder_ = std::make_unique<FlightRecorder>(config_.recorder);
    }

    if (!config_.streamPath.empty())
        stream_.open(config_.streamPath);
}

SeriesId
TelemetryHub::declareSeries(const std::string &name)
{
    fatalIf(name.empty(), "telemetry series needs a name");
    auto it = byName_.find(name);
    if (it != byName_.end())
        return it->second;
    const SeriesId id = series_.size();
    series_.push_back(
        Series{name, TimeSeriesBuffer(config_.sampleInterval, kRingBuckets),
               stats::QuantileSketch(kSketchAccuracy)});
    byName_[name] = id;
    return id;
}

const TimeSeriesBuffer *
TelemetryHub::series(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? nullptr : &series_[it->second].buffer;
}

void
TelemetryHub::writeSampleLines(Seconds now)
{
    for (const Series &series : series_) {
        const TimeSeriesBuffer &buffer = series.buffer;
        if (buffer.empty())
            continue;
        const TimeBucket latest = buffer.bucket(buffer.lastBucket());
        JsonLineWriter line;
        line.set("kind", "sample");
        line.set("t", now.value());
        line.set("series", series.name);
        if (latest.count > 0) {
            line.set("mean", latest.mean());
            line.set("min", latest.min);
            line.set("max", latest.max);
            line.set("last", latest.last);
            line.set("n", latest.count);
        }
        if (series.sketch.count() > 0) {
            line.set("p50", series.sketch.quantile(0.5));
            line.set("p99", series.sketch.quantile(0.99));
            line.set("total_n", series.sketch.count());
        }
        stream_.writeLine(line);
    }
}

void
TelemetryHub::tick(Seconds now)
{
    if (!config_.enabled || now < nextTickAt_)
        return;
    nextTickAt_ = now + config_.streamInterval;

    const std::vector<SloEdge> edges =
        slo_.evaluate(now, [this](const std::string &name) {
            return series(name);
        });
    if (stream_.isOpen()) {
        for (const SloEdge &edge : edges) {
            const SloAlertState &state = edge.state;
            JsonLineWriter line;
            line.set("kind", "alert");
            line.set("t", edge.fired ? state.firedAt.value()
                                     : state.resolvedAt.value());
            line.set("rule", state.rule.name);
            line.set("edge", edge.fired ? "fire" : "resolve");
            line.set("short_burn", state.shortBurn);
            line.set("long_burn", state.longBurn);
            stream_.writeLine(line);
        }
    }

    if (recorder_) {
        const std::optional<FlightDump> dump = recorder_->tick(now);
        if (dump && stream_.isOpen()) {
            JsonLineWriter line;
            line.set("kind", "dump");
            line.set("t", now.value());
            line.set("path", dump->path);
            line.set("reason", dump->reason);
            line.set("events", uint64_t(dump->events));
            stream_.writeLine(line);
        }
    }

    if (stream_.isOpen())
        writeSampleLines(now);
}

} // namespace agsim::obs::telemetry
