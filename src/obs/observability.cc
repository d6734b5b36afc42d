#include "obs/observability.h"

#include <atomic>
#include <utility>

namespace agsim::obs {

namespace {

std::atomic<bool> tracingOn{false};
std::atomic<bool> profilingOn{false};
thread_local int32_t tlsTaskId = 0;

} // namespace

MetricRegistry &
registry()
{
    // Intentionally leaked: handles handed to model code must outlive
    // every static destructor.
    static MetricRegistry *global = new MetricRegistry();
    return *global;
}

TraceRecorder &
trace()
{
    static TraceRecorder *global = new TraceRecorder();
    return *global;
}

bool
tracingEnabled()
{
    return tracingOn.load(std::memory_order_relaxed);
}

void
setTracingEnabled(bool enabled)
{
    tracingOn.store(enabled, std::memory_order_relaxed);
}

bool
profilingEnabled()
{
    return profilingOn.load(std::memory_order_relaxed);
}

void
setProfilingEnabled(bool enabled)
{
    profilingOn.store(enabled, std::memory_order_relaxed);
}

int32_t
currentTaskId()
{
    return tlsTaskId;
}

TaskIdScope::TaskIdScope(int32_t id) : saved_(tlsTaskId)
{
    tlsTaskId = id;
}

TaskIdScope::~TaskIdScope()
{
    tlsTaskId = saved_;
}

void
emit(TraceEvent event)
{
    if (!tracingEnabled())
        return;
    event.task = tlsTaskId;
    trace().record(std::move(event));
}

void
resetAll()
{
    setTracingEnabled(false);
    setProfilingEnabled(false);
    trace().clear();
    registry().resetValues();
}

} // namespace agsim::obs
