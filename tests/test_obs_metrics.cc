/**
 * @file
 * Metric-registry tests: identity, aggregation across threads, JSON
 * snapshot shape, and the JSON emission primitives.
 */

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "common/error.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/observability.h"
#include "obs/scoped_timer.h"

namespace agsim::obs {
namespace {

TEST(MetricKey, SortsLabelsByName)
{
    EXPECT_EQ(MetricRegistry::key("chip.steps", {}), "chip.steps");
    EXPECT_EQ(MetricRegistry::key(
                  "chip.steps", {{"socket", "1"}, {"core", "3"}}),
              "chip.steps{core=3,socket=1}");
    // Label order must not create distinct identities.
    EXPECT_EQ(MetricRegistry::key("x", {{"a", "1"}, {"b", "2"}}),
              MetricRegistry::key("x", {{"b", "2"}, {"a", "1"}}));
}

TEST(MetricRegistry, CounterIsGetOrCreate)
{
    MetricRegistry registry;
    Counter &a = registry.counter("events", {{"socket", "0"}});
    Counter &b = registry.counter("events", {{"socket", "0"}});
    Counter &other = registry.counter("events", {{"socket", "1"}});
    EXPECT_EQ(&a, &b);
    EXPECT_NE(&a, &other);
    a.add(3);
    b.add();
    EXPECT_EQ(a.value(), 4);
    EXPECT_EQ(other.value(), 0);
}

TEST(MetricRegistry, GaugeKeepsLastWrite)
{
    MetricRegistry registry;
    Gauge &g = registry.gauge("setpoint_v");
    g.set(1.2);
    g.set(1.15);
    EXPECT_DOUBLE_EQ(g.value(), 1.15);
}

TEST(MetricRegistry, HistogramFirstRegistrationFixesLayout)
{
    MetricRegistry registry;
    HistogramMetric &h = registry.histogram("wall_ms", 0.0, 100.0, 10);
    HistogramMetric &again =
        registry.histogram("wall_ms", -5.0, 5.0, 99);
    EXPECT_EQ(&h, &again);
    EXPECT_DOUBLE_EQ(again.hi(), 100.0);
    EXPECT_EQ(again.bins(), 10u);
    h.observe(42.0);
    EXPECT_EQ(h.snapshot().total(), 1u);
}

TEST(MetricRegistry, ConcurrentAddsAggregate)
{
    MetricRegistry registry;
    Counter &c = registry.counter("hits");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&registry] {
            // Re-lookup inside the thread: same identity, same cell.
            Counter &mine = registry.counter("hits");
            for (int i = 0; i < 10000; ++i)
                mine.add();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(c.value(), 40000);
}

TEST(MetricRegistry, SnapshotJsonParsesAndResets)
{
    MetricRegistry registry;
    registry.counter("a.count").add(7);
    registry.gauge("b.gauge").set(2.5);
    registry.histogram("c.hist", 0.0, 10.0, 5).observe(3.0);
    const std::string json = registry.snapshotJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"a.count\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);

    registry.resetValues();
    EXPECT_EQ(registry.counter("a.count").value(), 0);
    EXPECT_DOUBLE_EQ(registry.gauge("b.gauge").value(), 0.0);
    EXPECT_EQ(registry.histogram("c.hist", 0, 1, 1).snapshot().total(),
              0u);
}

TEST(ScopedTimer, RecordsOnlyWhenProfilingEnabled)
{
    TimerStat stat = registry().timer("test.scoped_timer");
    const int64_t callsBefore = stat.calls->value();
    {
        ScopedTimer off(stat);
    }
    EXPECT_EQ(stat.calls->value(), callsBefore);

    setProfilingEnabled(true);
    {
        ScopedTimer on(stat);
    }
    setProfilingEnabled(false);
    EXPECT_EQ(stat.calls->value(), callsBefore + 1);
    EXPECT_GE(stat.nanos->value(), 0);
}

TEST(MetricRegistry, CardinalityCapCollapsesNewSeries)
{
    MetricRegistry registry;
    registry.setMaxSeriesPerMetric(2);
    Counter &a = registry.counter("fleet.events", {{"server", "0"}});
    Counter &b = registry.counter("fleet.events", {{"server", "1"}});
    EXPECT_EQ(registry.droppedSeries(), 0);

    // The cap is reached: further new label sets collapse into the
    // shared overflow cell, one dropped-series bump each.
    Counter &over1 = registry.counter("fleet.events", {{"server", "2"}});
    Counter &over2 = registry.counter("fleet.events", {{"server", "3"}});
    EXPECT_EQ(&over1, &over2);
    EXPECT_NE(&over1, &a);
    EXPECT_NE(&over1, &b);
    EXPECT_EQ(registry.droppedSeries(), 2);

    // Existing series stay individually addressable.
    Counter &aAgain = registry.counter("fleet.events", {{"server", "0"}});
    EXPECT_EQ(&aAgain, &a);
    EXPECT_EQ(registry.droppedSeries(), 2);

    // Other metric names have their own budget.
    registry.counter("other.metric", {{"server", "7"}});
    EXPECT_EQ(registry.droppedSeries(), 2);

    over1.add(5);
    const std::string snapshot = registry.snapshotJson();
    EXPECT_NE(snapshot.find("fleet.events{overflow=true}"),
              std::string::npos);
    EXPECT_NE(snapshot.find("obs.dropped_series_total"),
              std::string::npos);
}

TEST(MetricRegistry, CardinalityCapSpansInstrumentKinds)
{
    MetricRegistry registry;
    registry.setMaxSeriesPerMetric(1);
    registry.counter("mixed", {{"k", "a"}});
    // The same name's budget is shared across instrument kinds, so a
    // gauge under a fresh label set is already over.
    Gauge &g1 = registry.gauge("mixed", {{"k", "b"}});
    Gauge &g2 = registry.gauge("mixed", {{"k", "c"}});
    EXPECT_EQ(&g1, &g2);
    EXPECT_EQ(registry.droppedSeries(), 2);
}

TEST(MetricRegistry, TimerPairAdmitsJointlyAtTheCap)
{
    MetricRegistry registry;
    registry.setMaxSeriesPerMetric(1);
    // Exhaust `t.ns`'s budget while `t.calls` still has room.
    registry.counter("t.ns", {{"k", "a"}});

    // Regression: admitting the halves independently would land
    // `t.calls{k=b}` as a live series while `t.ns{k=b}` collapses into
    // the overflow cell — a split pair whose ns-per-call ratio mixes
    // unrelated series. Joint admission collapses both halves.
    TimerStat split = registry.timer("t", {{"k", "b"}});
    split.calls->add(7);
    split.nanos->add(700);
    EXPECT_EQ(registry.counter("t.calls", {{"overflow", "true"}}).value(),
              7);
    EXPECT_EQ(registry.counter("t.ns", {{"overflow", "true"}}).value(),
              700);
    EXPECT_EQ(registry.droppedSeries(), 2);

    // The live `t.calls` budget was not consumed by the collapse.
    TimerStat fresh = registry.timer("u", {{"k", "a"}});
    EXPECT_NE(fresh.calls, split.calls);
    EXPECT_EQ(registry.droppedSeries(), 2);
}

TEST(MetricRegistry, TimerRefetchReturnsTheSamePair)
{
    MetricRegistry registry;
    registry.setMaxSeriesPerMetric(1);
    TimerStat first = registry.timer("t", {{"k", "a"}});
    TimerStat again = registry.timer("t", {{"k", "a"}});
    EXPECT_EQ(first.calls, again.calls);
    EXPECT_EQ(first.nanos, again.nanos);
    EXPECT_EQ(registry.droppedSeries(), 0);
}

TEST(MetricRegistry, HistogramRefetchIgnoresLayoutArguments)
{
    MetricRegistry registry;
    HistogramMetric &h = registry.histogram("h", 0.0, 10.0, 10);
    // Documented contract: later calls with an existing identity ignore
    // lo/hi/bins — a handle re-fetch with placeholder bounds must not
    // abort (it used to validate before the identity lookup).
    HistogramMetric &again = registry.histogram("h", 0.0, 0.0, 0);
    EXPECT_EQ(&h, &again);
    EXPECT_DOUBLE_EQ(again.hi(), 10.0);
    EXPECT_EQ(again.bins(), 10u);
    // A genuinely new registration still validates its layout.
    EXPECT_THROW(registry.histogram("h2", 1.0, 1.0, 4), ConfigError);
}

TEST(MetricRegistry, UnboundedCapNeverDrops)
{
    MetricRegistry registry;
    registry.setMaxSeriesPerMetric(0);
    for (int i = 0; i < 64; ++i)
        registry.counter("wide", {{"i", std::to_string(i)}});
    EXPECT_EQ(registry.droppedSeries(), 0);
}

TEST(MetricRegistry, ResetValuesClearsDroppedSeries)
{
    MetricRegistry registry;
    registry.setMaxSeriesPerMetric(1);
    registry.counter("w", {{"i", "0"}});
    registry.counter("w", {{"i", "1"}});
    EXPECT_EQ(registry.droppedSeries(), 1);
    registry.resetValues();
    EXPECT_EQ(registry.droppedSeries(), 0);
}

TEST(JsonWriter, EscapesAndFormats)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    EXPECT_EQ(jsonNumber(2.5), "2.5");
    // Strict JSON: non-finite values become null.
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonWriter, LineWriterPreservesInsertionOrder)
{
    JsonLineWriter line;
    line.set("bench", "demo");
    line.set("count", int64_t(3));
    line.set("ok", true);
    line.setRaw("points", "[1, 2]");
    EXPECT_EQ(line.str(),
              "{\"bench\": \"demo\", \"count\": 3, \"ok\": true, "
              "\"points\": [1, 2]}");

    // The bench summary contract: the object as one stdout line.
    ::testing::internal::CaptureStdout();
    writeJsonLine(line);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), line.str() + "\n");
}

TEST(JsonWriter, OverwritingKeyKeepsPosition)
{
    JsonLineWriter line;
    line.set("a", 1);
    line.set("b", 2);
    line.set("a", 9);
    EXPECT_EQ(line.str(), "{\"a\": 9, \"b\": 2}");
}

} // namespace
} // namespace agsim::obs
