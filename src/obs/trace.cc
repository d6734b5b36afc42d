#include "obs/trace.h"

#include <algorithm>

#include "common/error.h"
#include "obs/json_writer.h"

namespace agsim::obs {

const char *
traceKindName(TraceKind kind)
{
    switch (kind) {
      case TraceKind::ModeTransition: return "mode_transition";
      case TraceKind::FirmwareTick: return "firmware_tick";
      case TraceKind::DroopResponse: return "droop_response";
      case TraceKind::SafetyDemotion: return "safety_demotion";
      case TraceKind::SafetyRearm: return "safety_rearm";
      case TraceKind::FaultChange: return "fault_change";
      case TraceKind::TaskBegin: return "task_begin";
      case TraceKind::TaskEnd: return "task_end";
      case TraceKind::Quantum: return "quantum";
      case TraceKind::PlacementDecision: return "placement_decision";
      case TraceKind::ServerFailure: return "server_failure";
      case TraceKind::ServerRecovery: return "server_recovery";
      case TraceKind::DegradationStep: return "degradation_step";
      case TraceKind::SloAlert: return "slo_alert";
      case TraceKind::FlightDump: return "flight_dump";
      case TraceKind::Custom: return "custom";
    }
    return "?";
}

TraceRecorder::TraceRecorder(size_t capacity) : capacity_(capacity)
{
    fatalIf(capacity == 0, "trace recorder needs a positive capacity");
    ag::MutexLock lock(mutex_);
    ring_.resize(capacity);
}

void
TraceRecorder::record(TraceEvent event)
{
    ag::MutexLock lock(mutex_);
    ring_[next_] = std::move(event);
    next_ = (next_ + 1) % ring_.size();
    ++recorded_;
}

std::vector<TraceEvent>
TraceRecorder::events() const
{
    ag::MutexLock lock(mutex_);
    std::vector<TraceEvent> out;
    const size_t count = recorded_ < ring_.size() ? size_t(recorded_)
                                                  : ring_.size();
    out.reserve(count);
    // Oldest retained event sits at next_ once the ring has wrapped.
    const size_t start = recorded_ < ring_.size() ? 0 : next_;
    for (size_t i = 0; i < count; ++i)
        out.push_back(ring_[(start + i) % ring_.size()]);
    return out;
}

uint64_t
TraceRecorder::recorded() const
{
    ag::MutexLock lock(mutex_);
    return recorded_;
}

uint64_t
TraceRecorder::dropped() const
{
    ag::MutexLock lock(mutex_);
    return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

void
TraceRecorder::clear()
{
    ag::MutexLock lock(mutex_);
    for (auto &slot : ring_)
        slot = TraceEvent();
    next_ = 0;
    recorded_ = 0;
}

namespace {

/** Stable export order: by task, then timeline position. */
std::vector<TraceEvent>
sortedForExport(std::vector<TraceEvent> events)
{
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent &x, const TraceEvent &y) {
                         if (x.task != y.task)
                             return x.task < y.task;
                         return x.simTime < y.simTime;
                     });
    return events;
}

/** Perfetto track id: one lane per (chip, core), chip lane for core -1. */
int64_t
exportTid(const TraceEvent &event)
{
    return int64_t(event.chip) * 1000 + int64_t(event.core) + 1;
}

/** The shared `args` object both exporters attach. */
std::string
argsJson(const TraceEvent &event)
{
    JsonLineWriter args;
    args.set("a", event.a);
    args.set("b", event.b);
    args.set("core", event.core);
    if (!event.detail.empty())
        args.set("detail", event.detail);
    return args.str();
}

} // namespace

std::string
chromeTraceJson(const std::vector<TraceEvent> &events)
{
    const std::vector<TraceEvent> sorted = sortedForExport(events);
    std::string out = "{\"traceEvents\": [";
    bool first = true;
    for (const TraceEvent &event : sorted) {
        JsonLineWriter record;
        record.set("name", traceKindName(event.kind));
        record.set("cat", "agsim");
        if (event.duration >= Seconds{0.0}) {
            record.set("ph", "X");
            record.set("dur", toMicroSeconds(event.duration));
        } else {
            // Instant event, thread-scoped.
            record.set("ph", "i");
            record.set("s", "t");
        }
        record.set("ts", toMicroSeconds(event.simTime));
        record.set("pid", int64_t(event.task));
        record.set("tid", exportTid(event));
        record.setRaw("args", argsJson(event));
        out += first ? "\n" : ",\n";
        out += record.str();
        first = false;
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

std::string
traceEventJson(const TraceEvent &event)
{
    JsonLineWriter record;
    record.set("t", event.simTime.value());
    record.set("kind", traceKindName(event.kind));
    record.set("task", int64_t(event.task));
    record.set("chip", int64_t(event.chip));
    record.set("core", int64_t(event.core));
    record.set("a", event.a);
    record.set("b", event.b);
    if (event.duration >= Seconds{0.0})
        record.set("dur", event.duration.value());
    if (!event.detail.empty())
        record.set("detail", event.detail);
    return record.str();
}

bool
writeChromeTrace(const TraceRecorder &recorder, const std::string &path)
{
    return writeTextFile(path, chromeTraceJson(recorder.events()));
}

} // namespace agsim::obs
