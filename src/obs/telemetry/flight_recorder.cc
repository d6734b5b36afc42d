#include "obs/telemetry/flight_recorder.h"

#include <algorithm>
#include <utility>

#include "obs/json_writer.h"
#include "obs/observability.h"

namespace agsim::obs::telemetry {

namespace {

/** Events this far before the trigger are kept in the dump. */
constexpr Seconds kPreWindow{0.1};
/** Recording continues this far past the trigger. */
constexpr Seconds kPostWindow{0.05};
/** Hard cap on dumps per run. */
constexpr size_t kMaxDumps = 16;

/** SloAlert details that arm a capture: "fire:<rule>". */
constexpr const char kFirePrefix[] = "fire:";

} // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config)), origin_(trace().recorded()),
      cursor_(origin_)
{
}

void
FlightRecorder::arm(std::string reason, Seconds when)
{
    if (capturing_ || dumps_.size() >= kMaxDumps) {
        ++suppressed_;
        return;
    }
    capturing_ = true;
    reason_ = std::move(reason);
    triggerTime_ = when;
}

std::optional<FlightDump>
FlightRecorder::tick(Seconds now)
{
    const std::vector<TraceEvent> fresh = trace().eventsSince(cursor_);
    // A full snapshot may have skipped events the ring already
    // overwrote; resume at the ring's end then.
    cursor_ = fresh.size() < trace().capacity() ? cursor_ + fresh.size()
                                                : trace().recorded();
    for (const TraceEvent &event : fresh) {
        if (event.kind == TraceKind::ServerFailure ||
            event.kind == TraceKind::DegradationStep) {
            std::string reason = traceKindName(event.kind);
            if (!event.detail.empty())
                reason += ":" + event.detail;
            arm(std::move(reason), event.simTime);
        } else if (event.kind == TraceKind::SloAlert &&
                   event.detail.rfind(kFirePrefix, 0) == 0) {
            arm("slo:" + event.detail.substr(sizeof(kFirePrefix) - 1),
                event.simTime);
        }
    }
    if (!capturing_ || now < triggerTime_ + kPostWindow)
        return std::nullopt;
    return finish(now);
}

FlightDump
FlightRecorder::finish(Seconds now)
{
    FlightDump dump;
    dump.reason = reason_;
    dump.triggerTime = triggerTime_;
    dump.windowStart = triggerTime_ - kPreWindow;
    dump.windowEnd = triggerTime_ + kPostWindow;
    std::vector<TraceEvent> events;
    for (TraceEvent &event : trace().eventsSince(origin_))
        if (event.simTime >= dump.windowStart &&
            event.simTime <= dump.windowEnd)
            events.push_back(std::move(event));
    // Worker shards drift, so record order is not time order.
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &x, const TraceEvent &y) {
                         return x.simTime < y.simTime;
                     });
    dump.events = events.size();

    std::string seq = std::to_string(dumps_.size());
    while (seq.size() < 3)
        seq = "0" + seq;
    dump.path = config_.dir + "/flight_" + seq + ".jsonl";

    JsonLineWriter header;
    header.set("kind", "flight_dump_header");
    header.set("reason", dump.reason);
    header.set("trigger_t", dump.triggerTime.value());
    header.set("window_start", dump.windowStart.value());
    header.set("window_end", dump.windowEnd.value());
    header.set("events", uint64_t(dump.events));
    std::string content = header.str() + "\n";
    for (const TraceEvent &event : events)
        content += traceEventJson(event) + "\n";
    if (!writeTextFile(dump.path, content))
        dump.path.clear();

    capturing_ = false;
    reason_.clear();
    dumps_.push_back(dump);

    TraceEvent event;
    event.simTime = now;
    event.kind = TraceKind::FlightDump;
    event.a = double(dump.events);
    event.detail = dump.path.empty() ? "write-failed:" + dump.reason
                                     : dump.path;
    emit(std::move(event));
    return dump;
}

} // namespace agsim::obs::telemetry
