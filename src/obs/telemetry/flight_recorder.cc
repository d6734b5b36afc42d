#include "obs/telemetry/flight_recorder.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "obs/json_writer.h"
#include "obs/observability.h"

namespace agsim::obs::telemetry {

namespace {

/** Pre-window ring capacity (events). */
constexpr size_t kRingCapacity = 4096;

} // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config)
    : config_(std::move(config))
{
    fatalIf(config_.preWindow < Seconds{0.0} ||
                config_.postWindow < Seconds{0.0},
            "flight recorder windows must be non-negative");
}

void
FlightRecorder::armLocked(const std::string &reason, Seconds when)
{
    if (capturing_ || dumpsTaken_ >= config_.maxDumps) {
        ++suppressed_;
        return;
    }
    capturing_ = true;
    reason_ = reason;
    triggerTime_ = when;
}

void
FlightRecorder::pruneLocked(Seconds now)
{
    if (!capturing_) {
        const Seconds horizon = now - config_.preWindow;
        while (!ring_.empty() && ring_.front().simTime < horizon)
            ring_.pop_front();
    }
    while (ring_.size() > kRingCapacity)
        ring_.pop_front();
}

void
FlightRecorder::observe(const TraceEvent &event)
{
    ag::MutexLock lock(mutex_);
    ring_.push_back(event);
    pruneLocked(event.simTime);
    if (event.kind != TraceKind::ServerFailure &&
        event.kind != TraceKind::DegradationStep)
        return;
    std::string reason = traceKindName(event.kind);
    if (!event.detail.empty())
        reason += ":" + event.detail;
    armLocked(reason, event.simTime);
}

void
FlightRecorder::trigger(const std::string &reason, Seconds when)
{
    ag::MutexLock lock(mutex_);
    armLocked(reason, when);
}

bool
FlightRecorder::finalize(Seconds now, FlightDump &dump,
                         std::vector<TraceEvent> &events)
{
    ag::MutexLock lock(mutex_);
    if (!capturing_ || now < triggerTime_ + config_.postWindow)
        return false;

    dump.reason = reason_;
    dump.triggerTime = triggerTime_;
    dump.windowStart = triggerTime_ - config_.preWindow;
    dump.windowEnd = triggerTime_ + config_.postWindow;
    for (const TraceEvent &event : ring_)
        if (event.simTime >= dump.windowStart &&
            event.simTime <= dump.windowEnd)
            events.push_back(event);
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &x, const TraceEvent &y) {
                         return x.simTime < y.simTime;
                     });
    dump.events = events.size();

    std::string seq = std::to_string(sequence_++);
    while (seq.size() < 3)
        seq = "0" + seq;
    dump.path = config_.dir + "/flight_" + seq + ".jsonl";

    capturing_ = false;
    reason_.clear();
    // Commit the capture against the maxDumps budget here, before the
    // lock drops for the file write: armLocked checks dumpsTaken_, so a
    // trigger landing while the dump is being written cannot overrun
    // the cap (dumps_ itself is only pushed after the write).
    ++dumpsTaken_;
    pruneLocked(now);
    return true;
}

void
FlightRecorder::tick(Seconds now)
{
    FlightDump dump;
    std::vector<TraceEvent> events;
    if (!finalize(now, dump, events)) {
        ag::MutexLock lock(mutex_);
        pruneLocked(now);
        return;
    }

    // Write (and emit) outside the lock: the FlightDump event flows
    // back through the tap into observe() on this same thread.
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

    {
        ag::MutexLock lock(mutex_);
        dumps_.push_back(dump);
    }

    TraceEvent event;
    event.simTime = now;
    event.kind = TraceKind::FlightDump;
    event.a = double(dump.events);
    event.detail = dump.path.empty() ? "write-failed:" + dump.reason
                                     : dump.path;
    emit(std::move(event));
}

bool
FlightRecorder::capturing() const
{
    ag::MutexLock lock(mutex_);
    return capturing_;
}

std::vector<FlightDump>
FlightRecorder::dumps() const
{
    ag::MutexLock lock(mutex_);
    return dumps_;
}

uint64_t
FlightRecorder::suppressedTriggers() const
{
    ag::MutexLock lock(mutex_);
    return suppressed_;
}

} // namespace agsim::obs::telemetry
