#include "obs/telemetry/telemetry_hub.h"

#include <utility>

#include "common/error.h"
#include "obs/observability.h"

namespace agsim::obs::telemetry {

namespace {

/** Buckets retained per shard lane. */
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
        recorder_ = std::make_unique<FlightRecorder>(config_.recorder);
        // The recorder sees events through the tap, which only runs
        // while tracing is on; enabling telemetry arms tracing.
        setTracingEnabled(true);
        FlightRecorder *recorder = recorder_.get();
        setEventTap([recorder](const TraceEvent &event) {
            recorder->observe(event);
        });
        tapInstalled_ = true;
    }

    if (!config_.streamPath.empty())
        stream_.open(config_.streamPath);

    slo_.onAlert([this](const SloAlertState &state, bool fired) {
        if (stream_.isOpen()) {
            JsonLineWriter line;
            line.set("kind", "alert");
            line.set("t", fired ? state.firedAt.value()
                                : state.resolvedAt.value());
            line.set("rule", state.rule.name);
            line.set("edge", fired ? "fire" : "resolve");
            line.set("short_burn", state.shortBurn);
            line.set("long_burn", state.longBurn);
            stream_.writeLine(line);
        }
        if (fired && recorder_)
            recorder_->trigger("slo:" + state.rule.name, state.firedAt);
    });
}

TelemetryHub::~TelemetryHub()
{
    if (tapInstalled_)
        setEventTap({});
}

SeriesId
TelemetryHub::declareSeries(const std::string &name, size_t shards)
{
    fatalIf(name.empty(), "telemetry series needs a name");
    fatalIf(shards == 0, "telemetry series needs >= 1 shard");
    auto it = byName_.find(name);
    if (it != byName_.end()) {
        fatalIf(series_[it->second]->buffers.size() != shards,
                "telemetry series '" + name +
                    "' redeclared with a different shard count");
        return it->second;
    }
    auto series = std::make_unique<Series>();
    series->name = name;
    series->buffers.reserve(shards);
    series->sketches.reserve(shards);
    for (size_t i = 0; i < shards; ++i) {
        series->buffers.emplace_back(config_.sampleInterval, kRingBuckets);
        series->sketches.emplace_back(kSketchAccuracy);
    }
    const SeriesId id = series_.size();
    series_.push_back(std::move(series));
    byName_[name] = id;
    return id;
}

MergedSeries
TelemetryHub::merged(SeriesId id) const
{
    fatalIf(id >= series_.size(), "unknown telemetry series id");
    std::vector<const TimeSeriesBuffer *> lanes;
    lanes.reserve(series_[id]->buffers.size());
    for (const TimeSeriesBuffer &buffer : series_[id]->buffers)
        lanes.push_back(&buffer);
    return TimeSeriesBuffer::merge(lanes);
}

MergedSeries
TelemetryHub::merged(const std::string &name) const
{
    auto it = byName_.find(name);
    if (it == byName_.end())
        return MergedSeries{};
    return merged(it->second);
}

stats::QuantileSketch
TelemetryHub::mergedSketch(SeriesId id) const
{
    fatalIf(id >= series_.size(), "unknown telemetry series id");
    stats::QuantileSketch out(kSketchAccuracy);
    for (const stats::QuantileSketch &sketch : series_[id]->sketches)
        out.merge(sketch);
    return out;
}

void
TelemetryHub::writeSampleLines(Seconds now)
{
    for (SeriesId id = 0; id < series_.size(); ++id) {
        const MergedSeries view = merged(id);
        if (view.empty())
            continue;
        const TimeBucket &latest = view.buckets.back();
        JsonLineWriter line;
        line.set("kind", "sample");
        line.set("t", now.value());
        line.set("series", series_[id]->name);
        if (latest.count > 0) {
            line.set("mean", latest.mean());
            line.set("min", latest.min);
            line.set("max", latest.max);
            line.set("last", latest.last);
            line.set("n", latest.count);
        }
        const stats::QuantileSketch sketch = mergedSketch(id);
        if (sketch.count() > 0) {
            line.set("p50", sketch.quantile(0.5));
            line.set("p99", sketch.quantile(0.99));
            line.set("total_n", sketch.count());
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

    slo_.evaluate(now, [this](const std::string &name) {
        return merged(name);
    });

    if (recorder_) {
        recorder_->tick(now);
        if (stream_.isOpen()) {
            const std::vector<FlightDump> dumps = recorder_->dumps();
            for (; streamedDumps_ < dumps.size(); ++streamedDumps_) {
                const FlightDump &dump = dumps[streamedDumps_];
                JsonLineWriter line;
                line.set("kind", "dump");
                line.set("t", now.value());
                line.set("path", dump.path);
                line.set("reason", dump.reason);
                line.set("events", uint64_t(dump.events));
                stream_.writeLine(line);
            }
        }
    }

    if (stream_.isOpen())
        writeSampleLines(now);
}

} // namespace agsim::obs::telemetry
