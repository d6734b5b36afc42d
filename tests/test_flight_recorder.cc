/**
 * @file
 * FlightRecorder tests: trigger arming from trace-ring events,
 * pre/post window bracketing, the dump cap, trigger suppression during
 * captures, and the dump file format (header line + one JSON event per
 * line). Events reach the recorder only through obs::emit and the
 * process trace ring, as in a fleet run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "obs/observability.h"
#include "obs/telemetry/flight_recorder.h"
#include "obs/trace.h"

namespace agsim::obs::telemetry {
namespace {

void
emitAt(double t, TraceKind kind = TraceKind::Custom,
       const std::string &detail = "")
{
    TraceEvent event;
    event.simTime = Seconds{t};
    event.kind = kind;
    event.detail = detail;
    emit(std::move(event));
}

FlightRecorderConfig
testConfig()
{
    FlightRecorderConfig config;
    config.dir = ::testing::TempDir();
    return config;
}

/** Clean global obs state with tracing on, restored on exit. */
class TracingOn
{
  public:
    TracingOn()
    {
        resetAll();
        setTracingEnabled(true);
    }
    ~TracingOn() { resetAll(); }
};

void
removeDumps(const FlightRecorder &recorder)
{
    for (const FlightDump &dump : recorder.dumps())
        std::remove(dump.path.c_str());
}

TEST(FlightRecorder, CaptureBracketsTheTrigger)
{
    TracingOn tracing;
    FlightRecorder recorder(testConfig());

    // Pre-window noise; the oldest event falls outside the window.
    emitAt(0.10);
    emitAt(0.25);
    emitAt(0.29);
    emitAt(0.30, TraceKind::ServerFailure, "crash");
    // Arming happens when tick() scans the ring.
    EXPECT_FALSE(recorder.capturing());
    EXPECT_FALSE(recorder.tick(Seconds{0.30}));
    EXPECT_TRUE(recorder.capturing());

    // Post-window events keep landing in the open capture.
    emitAt(0.32);
    EXPECT_FALSE(recorder.tick(Seconds{0.34}));
    EXPECT_TRUE(recorder.capturing());
    emitAt(0.36);
    const std::optional<FlightDump> dump = recorder.tick(Seconds{0.36});
    EXPECT_FALSE(recorder.capturing());

    ASSERT_TRUE(dump);
    ASSERT_EQ(recorder.dumps().size(), 1u);
    EXPECT_EQ(recorder.dumps()[0].path, dump->path);
    EXPECT_EQ(dump->reason, "server_failure:crash");
    EXPECT_DOUBLE_EQ(dump->triggerTime.value(), 0.30);
    EXPECT_DOUBLE_EQ(dump->windowStart.value(), 0.20);
    EXPECT_DOUBLE_EQ(dump->windowEnd.value(), 0.35);
    // 0.10 predates the window; 0.36 postdates it. The four in
    // [0.20, 0.35] — 0.25, 0.29, the trigger, 0.32 — are kept.
    EXPECT_EQ(dump->events, 4u);
    EXPECT_FALSE(dump->path.empty());

    // File shape: one header line then one JSON object per event.
    std::ifstream in(dump->path);
    ASSERT_TRUE(in.good());
    std::string line;
    size_t lines = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        ++lines;
    }
    EXPECT_EQ(lines, 1u + dump->events);
    removeDumps(recorder);
}

TEST(FlightRecorder, TriggersDuringCaptureAreAbsorbed)
{
    TracingOn tracing;
    FlightRecorder recorder(testConfig());
    emitAt(1.0, TraceKind::ServerFailure, "first");
    recorder.tick(Seconds{1.0});
    // The failure storm: more triggers while the capture is open all
    // belong to the same dump.
    emitAt(1.01, TraceKind::ServerFailure, "second");
    emitAt(1.02, TraceKind::DegradationStep);
    recorder.tick(Seconds{1.2});
    const auto &dumps = recorder.dumps();
    ASSERT_EQ(dumps.size(), 1u);
    EXPECT_EQ(dumps[0].reason, "server_failure:first");
    EXPECT_EQ(dumps[0].events, 3u);
    EXPECT_EQ(recorder.suppressedTriggers(), 2u);
    removeDumps(recorder);
}

TEST(FlightRecorder, SloFireEventsTriggerUpToTheDumpCap)
{
    TracingOn tracing;
    FlightRecorder recorder(testConfig());
    // A resolve edge is not a trigger.
    emitAt(0.5, TraceKind::SloAlert, "resolve:margin_floor");
    recorder.tick(Seconds{0.5});
    EXPECT_FALSE(recorder.capturing());

    // 18 fire edges against the 16-dump cap.
    for (int i = 0; i < 18; ++i) {
        const double t = double(i + 1);
        emitAt(t, TraceKind::SloAlert, "fire:margin_floor");
        recorder.tick(Seconds{t});
        recorder.tick(Seconds{t + 0.2});
    }
    const auto &dumps = recorder.dumps();
    ASSERT_EQ(dumps.size(), 16u);
    EXPECT_EQ(dumps[0].reason, "slo:margin_floor");
    EXPECT_DOUBLE_EQ(dumps[0].triggerTime.value(), 1.0);
    // The two fires past the cap were refused.
    EXPECT_EQ(recorder.suppressedTriggers(), 2u);
    removeDumps(recorder);
}

TEST(FlightRecorder, FlightDumpEventsNeverTrigger)
{
    TracingOn tracing;
    FlightRecorder recorder(testConfig());
    emitAt(1.0, TraceKind::FlightDump);
    recorder.tick(Seconds{1.0});
    EXPECT_FALSE(recorder.capturing());
    EXPECT_TRUE(recorder.dumps().empty());
}

TEST(FlightRecorder, DumpEventsAreTimeSorted)
{
    TracingOn tracing;
    FlightRecorder recorder(testConfig());
    // Worker shards drift, so record order is not time order.
    emitAt(0.95);
    emitAt(0.93);
    emitAt(0.98);
    emitAt(1.0, TraceKind::ServerFailure, "crash");
    recorder.tick(Seconds{1.0});
    recorder.tick(Seconds{1.2});
    const auto &dumps = recorder.dumps();
    ASSERT_EQ(dumps.size(), 1u);

    std::ifstream in(dumps[0].path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line)); // header
    double previous = -1.0;
    size_t events = 0;
    while (std::getline(in, line)) {
        const auto pos = line.find("\"t\":");
        ASSERT_NE(pos, std::string::npos);
        const double t = std::stod(line.substr(pos + 4));
        EXPECT_GE(t, previous);
        previous = t;
        ++events;
    }
    EXPECT_EQ(events, 4u);
    removeDumps(recorder);
}

TEST(FlightRecorder, BusyPreWindowKeepsEveryEvent)
{
    // A busy fleet emits thousands of events per pre-window; the dump
    // holds all of them, not just the most recent few thousand.
    TracingOn tracing;
    FlightRecorder recorder(testConfig());
    constexpr int kEvents = 5000;
    for (int i = 0; i < kEvents; ++i)
        emitAt(0.91 + 0.08 * double(i) / kEvents);
    emitAt(1.0, TraceKind::ServerFailure, "crash");
    recorder.tick(Seconds{1.0});
    const std::optional<FlightDump> dump = recorder.tick(Seconds{1.2});
    ASSERT_TRUE(dump);
    EXPECT_EQ(dump->events, size_t(kEvents) + 1);
    removeDumps(recorder);
}

TEST(FlightRecorder, EventsBeforeConstructionNeverReachDumps)
{
    TracingOn tracing;
    emitAt(0.95);
    emitAt(0.97, TraceKind::ServerFailure, "before");
    FlightRecorder recorder(testConfig());
    recorder.tick(Seconds{0.99});
    // The earlier failure neither arms a capture nor joins one.
    EXPECT_FALSE(recorder.capturing());
    emitAt(1.0, TraceKind::ServerFailure, "after");
    recorder.tick(Seconds{1.0});
    const std::optional<FlightDump> dump = recorder.tick(Seconds{1.2});
    ASSERT_TRUE(dump);
    EXPECT_EQ(dump->reason, "server_failure:after");
    EXPECT_EQ(dump->events, 1u);
    removeDumps(recorder);
}

} // namespace
} // namespace agsim::obs::telemetry
