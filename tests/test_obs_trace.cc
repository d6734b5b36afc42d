/**
 * @file
 * Trace-recorder tests: ring-buffer semantics, task attribution, the
 * enable gate, export formats, and the chip instrumentation feeding the
 * recorder its control events.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "chip/chip.h"
#include "common/error.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "obs/observability.h"
#include "obs/trace.h"
#include "pdn/vrm.h"

namespace agsim::obs {
namespace {

TraceEvent
makeEvent(double t, TraceKind kind)
{
    TraceEvent event;
    event.simTime = Seconds{t};
    event.kind = kind;
    return event;
}

/** RAII: clean global obs state around each test using it. */
class ObsReset
{
  public:
    ObsReset() { resetAll(); }
    ~ObsReset() { resetAll(); }
};

TEST(TraceRecorder, KeepsEventsInOrder)
{
    TraceRecorder recorder(8);
    recorder.record(makeEvent(0.1, TraceKind::FirmwareTick));
    recorder.record(makeEvent(0.2, TraceKind::ModeTransition));
    const auto events = recorder.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_DOUBLE_EQ(events[0].simTime, Seconds{0.1});
    EXPECT_EQ(events[1].kind, TraceKind::ModeTransition);
    EXPECT_EQ(recorder.recorded(), 2u);
    EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceRecorder, RingDropsOldestWhenFull)
{
    TraceRecorder recorder(4);
    for (int i = 0; i < 10; ++i)
        recorder.record(makeEvent(double(i), TraceKind::Custom));
    const auto events = recorder.events();
    ASSERT_EQ(events.size(), 4u);
    // The newest four survive: t = 6, 7, 8, 9.
    EXPECT_DOUBLE_EQ(events.front().simTime, Seconds{6.0});
    EXPECT_DOUBLE_EQ(events.back().simTime, Seconds{9.0});
    EXPECT_EQ(recorder.recorded(), 10u);
    EXPECT_EQ(recorder.dropped(), 6u);
}

TEST(TraceRecorder, ClearResetsEverything)
{
    TraceRecorder recorder(4);
    for (int i = 0; i < 6; ++i)
        recorder.record(makeEvent(double(i), TraceKind::Custom));
    recorder.clear();
    EXPECT_TRUE(recorder.events().empty());
    EXPECT_EQ(recorder.recorded(), 0u);
    EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(TraceRecorder, RejectsZeroCapacity)
{
    EXPECT_THROW(TraceRecorder(0), ConfigError);
}

TEST(ObsGate, EmitIsDroppedWhenTracingDisabled)
{
    ObsReset guard;
    emit(makeEvent(1.0, TraceKind::Custom));
    EXPECT_EQ(trace().recorded(), 0u);

    setTracingEnabled(true);
    emit(makeEvent(2.0, TraceKind::Custom));
    EXPECT_EQ(trace().recorded(), 1u);
}

TEST(ObsGate, TaskIdScopeStampsAndRestores)
{
    ObsReset guard;
    setTracingEnabled(true);
    EXPECT_EQ(currentTaskId(), 0);
    {
        TaskIdScope outer{7};
        EXPECT_EQ(currentTaskId(), 7);
        {
            TaskIdScope inner{9};
            emit(makeEvent(0.5, TraceKind::Custom));
        }
        EXPECT_EQ(currentTaskId(), 7);
    }
    EXPECT_EQ(currentTaskId(), 0);
    ASSERT_EQ(trace().events().size(), 1u);
    EXPECT_EQ(trace().events()[0].task, 9);
}

TEST(TraceExport, ChromeJsonShapeAndSortOrder)
{
    // Deliberately record out of task order: export must sort.
    std::vector<TraceEvent> events;
    TraceEvent late = makeEvent(0.5, TraceKind::FirmwareTick);
    late.task = 1;
    TraceEvent early = makeEvent(0.25, TraceKind::TaskEnd);
    early.task = 0;
    early.duration = Seconds{0.25};
    early.detail = "label \"quoted\"";
    events.push_back(late);
    events.push_back(early);

    const std::string json = chromeTraceJson(events);
    EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
    // task 0's span precedes task 1's instant after sorting.
    const size_t spanPos = json.find("\"ph\": \"X\"");
    const size_t instantPos = json.find("\"ph\": \"i\"");
    ASSERT_NE(spanPos, std::string::npos);
    ASSERT_NE(instantPos, std::string::npos);
    EXPECT_LT(spanPos, instantPos);
    // Microsecond timestamps and escaped details.
    EXPECT_NE(json.find("\"ts\": 250000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 250000"), std::string::npos);
    EXPECT_NE(json.find("label \\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"firmware_tick\""),
              std::string::npos);

    // writeChromeTrace puts the same document in a file.
    TraceRecorder recorder;
    for (const TraceEvent &event : events)
        recorder.record(event);
    const std::string path = ::testing::TempDir() + "trace_export.json";
    ASSERT_TRUE(writeChromeTrace(recorder, path));
    std::ifstream in(path);
    std::stringstream written;
    written << in.rdbuf();
    EXPECT_EQ(written.str(), json);
}

TEST(TraceExport, JsonlOneRecordPerLine)
{
    // A dump line is one event as one flat object, with no newline.
    const std::string mode =
        traceEventJson(makeEvent(0.1, TraceKind::ModeTransition));
    const std::string demotion =
        traceEventJson(makeEvent(0.2, TraceKind::SafetyDemotion));
    for (const std::string &line : {mode, demotion}) {
        EXPECT_EQ(line.find('\n'), std::string::npos);
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_NE(mode.find("\"kind\": \"mode_transition\""),
              std::string::npos);
    EXPECT_NE(demotion.find("\"kind\": \"safety_demotion\""),
              std::string::npos);
}

TEST(ChipTracing, EmitsControlEvents)
{
    ObsReset guard;
    setTracingEnabled(true);

    pdn::Vrm vrm(1);
    chip::ChipConfig config;
    config.undervolt.maxUndervolt = Volts{0.120};
    config.safety.maxRearms = 0;
    chip::Chip c(config, &vrm);
    c.setMode(chip::GuardbandMode::AdaptiveUndervolt);
    for (size_t i = 0; i < c.coreCount(); ++i)
        c.setLoad(i, chip::CoreLoad::running(1.0, Volts{13.0e-3}, Volts{24.0e-3}));
    c.settle(Seconds{0.5}, Seconds{1e-3});

    // An optimistic CPM lie drives the firmware under vmin; the safety
    // monitor must demote — all of it visible in the trace.
    fault::FaultPlan plan;
    plan.cpmOptimisticBias(Seconds{0.05}, Seconds{0.0}, Volts{0.040});
    fault::FaultInjector injector(plan, c.coreCount());
    c.attachFaultInjector(&injector);
    for (int i = 0; i < 4000 && !c.safetyDemoted(); ++i)
        c.step(Seconds{1e-3});
    ASSERT_TRUE(c.safetyDemoted());

    bool sawMode = false, sawTick = false, sawFault = false,
         sawDemotion = false;
    Seconds lastTime = Seconds{-1.0};
    for (const auto &event : trace().events()) {
        sawMode |= event.kind == TraceKind::ModeTransition;
        sawTick |= event.kind == TraceKind::FirmwareTick;
        sawFault |= event.kind == TraceKind::FaultChange;
        sawDemotion |= event.kind == TraceKind::SafetyDemotion;
        // Single chip, single thread: sim-time stamps never rewind.
        EXPECT_GE(event.simTime, lastTime);
        lastTime = event.simTime;
    }
    EXPECT_TRUE(sawMode);
    EXPECT_TRUE(sawTick);
    EXPECT_TRUE(sawFault);
    EXPECT_TRUE(sawDemotion);

    // The always-on counters tracked the same story.
    EXPECT_GT(registry()
                  .counter("chip.safety.demotions", {{"socket", "0"}})
                  .value(),
              0);
    EXPECT_GT(registry()
                  .counter("chip.firmware.ticks", {{"socket", "0"}})
                  .value(),
              0);
}

} // namespace
} // namespace agsim::obs
