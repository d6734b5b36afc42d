#include "obs/observability.h"

#include <atomic>
#include <utility>

#include "common/thread_annotations.h"

namespace agsim::obs {

namespace {

std::atomic<bool> tracingOn{false};
std::atomic<bool> profilingOn{false};
// The tap itself sits behind a mutex; the atomic flag keeps the
// common no-tap emit path at one extra relaxed load.
std::atomic<bool> tapOn{false};
ag::Mutex tapMutex;
// Function-local static, so the slot (like the global recorder) is
// immortal; the returned reference is only dereferenced under tapMutex.
std::function<void(const TraceEvent &)> &
tapSlot() AG_REQUIRES(tapMutex)
{
    static auto *slot = new std::function<void(const TraceEvent &)>();
    return *slot;
}
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
setEventTap(std::function<void(const TraceEvent &)> tap)
{
    ag::MutexLock lock(tapMutex);
    tapSlot() = std::move(tap);
    tapOn.store(bool(tapSlot()), std::memory_order_release);
}

void
emit(TraceEvent event)
{
    if (!tracingEnabled())
        return;
    event.task = tlsTaskId;
    if (tapOn.load(std::memory_order_acquire)) {
        ag::MutexLock lock(tapMutex);
        if (tapSlot())
            tapSlot()(event);
    }
    trace().record(std::move(event));
}

void
resetAll()
{
    setTracingEnabled(false);
    setProfilingEnabled(false);
    setEventTap({});
    trace().clear();
    registry().resetValues();
}

} // namespace agsim::obs
