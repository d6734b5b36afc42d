/**
 * @file
 * SloEngine tests: multi-window burn-rate fire/resolve edges, the
 * no-data hold, rule validation, and the edges evaluate() returns.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/telemetry/slo.h"
#include "obs/telemetry/time_series.h"

namespace agsim::obs::telemetry {
namespace {

/** A rule over "margin": bad when the bucket mean dips below 0. */
SloRule
marginRule()
{
    SloRule rule;
    rule.name = "margin_floor";
    rule.series = "margin";
    rule.stat = BucketStat::Mean;
    rule.threshold = 0.0;
    rule.violationIsAbove = false;
    rule.budget = 0.25;
    rule.shortWindow = Seconds{2.0};
    rule.longWindow = Seconds{10.0};
    rule.burnRate = 2.0;
    return rule;
}

/** Lookup serving one buffer under the rule's series name. */
SloEngine::SeriesLookup
lookupFor(const TimeSeriesBuffer &buffer)
{
    return [&buffer](const std::string &) { return &buffer; };
}

TEST(SloRule, ValidateRejectsNonsense)
{
    SloRule rule = marginRule();
    rule.name = "";
    EXPECT_THROW(rule.validate(), ConfigError);
    rule = marginRule();
    rule.budget = 0.0;
    EXPECT_THROW(rule.validate(), ConfigError);
    rule = marginRule();
    rule.longWindow = Seconds{1.0};
    EXPECT_THROW(rule.validate(), ConfigError);
    rule = marginRule();
    rule.burnRate = -1.0;
    EXPECT_THROW(rule.validate(), ConfigError);
}

TEST(SloEngine, DuplicateRuleNameIsFatal)
{
    SloEngine engine;
    engine.addRule(marginRule());
    EXPECT_THROW(engine.addRule(marginRule()), ConfigError);
}

TEST(SloEngine, FiresOnlyWhenBothWindowsBurn)
{
    SloEngine engine;
    engine.addRule(marginRule());
    TimeSeriesBuffer buffer(Seconds{1.0}, 64);

    // 10 s of healthy margin: no alert.
    for (int i = 0; i < 10; ++i)
        buffer.record(Seconds{double(i) + 0.5}, 0.05);
    engine.evaluate(Seconds{10.0}, lookupFor(buffer));
    EXPECT_EQ(engine.totalFires(), 0u);
    EXPECT_EQ(engine.activeCount(), 0u);

    // Two bad buckets: the short window (last 2 buckets) is fully bad
    // (burn 4.0 >= 2.0) but the long window holds 2/10 bad
    // (burn 0.8 < 2.0) — sustained-burn proof missing, still no fire.
    buffer.record(Seconds{10.5}, -0.01);
    buffer.record(Seconds{11.5}, -0.01);
    engine.evaluate(Seconds{12.0}, lookupFor(buffer));
    EXPECT_EQ(engine.totalFires(), 0u);

    // Keep burning: once 5 of the last 10 buckets are bad the long
    // burn reaches 2.0 and the alert fires.
    for (int i = 12; i < 15; ++i)
        buffer.record(Seconds{double(i) + 0.5}, -0.01);
    engine.evaluate(Seconds{15.0}, lookupFor(buffer));
    EXPECT_EQ(engine.totalFires(), 1u);
    EXPECT_EQ(engine.activeCount(), 1u);
    const SloAlertState &state = engine.alerts()[0];
    EXPECT_TRUE(state.active);
    EXPECT_DOUBLE_EQ(state.firedAt.value(), 15.0);
    EXPECT_GE(state.shortBurn, 2.0);
    EXPECT_GE(state.longBurn, 2.0);
}

TEST(SloEngine, ResolvesWhenBothWindowsRecover)
{
    SloEngine engine;
    engine.addRule(marginRule());
    TimeSeriesBuffer buffer(Seconds{1.0}, 64);
    for (int i = 0; i < 10; ++i)
        buffer.record(Seconds{double(i) + 0.5}, -0.01);
    engine.evaluate(Seconds{10.0}, lookupFor(buffer));
    ASSERT_EQ(engine.activeCount(), 1u);

    // Recovery: healthy buckets push the short burn under 1x quickly,
    // but the long window still carries the storm — stays active.
    for (int i = 10; i < 14; ++i)
        buffer.record(Seconds{double(i) + 0.5}, 0.05);
    engine.evaluate(Seconds{14.0}, lookupFor(buffer));
    EXPECT_EQ(engine.activeCount(), 1u);

    // Once the bad buckets age out of the long window too, resolve.
    for (int i = 14; i < 21; ++i)
        buffer.record(Seconds{double(i) + 0.5}, 0.05);
    engine.evaluate(Seconds{21.0}, lookupFor(buffer));
    EXPECT_EQ(engine.activeCount(), 0u);
    const SloAlertState &state = engine.alerts()[0];
    EXPECT_FALSE(state.active);
    EXPECT_DOUBLE_EQ(state.resolvedAt.value(), 21.0);
    // A resolve is not a fire; the count keeps the single edge.
    EXPECT_EQ(engine.totalFires(), 1u);
}

TEST(SloEngine, NoDataHoldsState)
{
    SloEngine engine;
    engine.addRule(marginRule());
    TimeSeriesBuffer buffer(Seconds{1.0}, 64);
    for (int i = 0; i < 10; ++i)
        buffer.record(Seconds{double(i) + 0.5}, -0.01);
    engine.evaluate(Seconds{10.0}, lookupFor(buffer));
    ASSERT_EQ(engine.activeCount(), 1u);

    // Evaluating far past the data (no overlapping buckets) must not
    // resolve the alert: absence of evidence is not recovery.
    engine.evaluate(Seconds{1000.0}, lookupFor(buffer));
    EXPECT_EQ(engine.activeCount(), 1u);

    TimeSeriesBuffer empty(Seconds{1.0}, 64);
    engine.evaluate(Seconds{10.0}, lookupFor(empty));
    EXPECT_EQ(engine.activeCount(), 1u);

    // A series name the lookup does not know reads as no data too.
    engine.evaluate(Seconds{10.0}, [](const std::string &) {
        return static_cast<const TimeSeriesBuffer *>(nullptr);
    });
    EXPECT_EQ(engine.activeCount(), 1u);
}

TEST(SloEngine, EvaluateReturnsBothEdges)
{
    SloEngine engine;
    engine.addRule(marginRule());
    TimeSeriesBuffer buffer(Seconds{1.0}, 64);
    for (int i = 0; i < 10; ++i)
        buffer.record(Seconds{double(i) + 0.5}, -0.01);
    const std::vector<SloEdge> fired =
        engine.evaluate(Seconds{10.0}, lookupFor(buffer));
    ASSERT_EQ(fired.size(), 1u);
    EXPECT_EQ(fired[0].state.rule.name, "margin_floor");
    EXPECT_TRUE(fired[0].fired);
    EXPECT_DOUBLE_EQ(fired[0].state.firedAt.value(), 10.0);

    // No transition, no edge.
    EXPECT_TRUE(engine.evaluate(Seconds{10.0}, lookupFor(buffer)).empty());

    for (int i = 10; i < 25; ++i)
        buffer.record(Seconds{double(i) + 0.5}, 0.05);
    const std::vector<SloEdge> resolved =
        engine.evaluate(Seconds{25.0}, lookupFor(buffer));
    ASSERT_EQ(resolved.size(), 1u);
    EXPECT_EQ(resolved[0].state.rule.name, "margin_floor");
    EXPECT_FALSE(resolved[0].fired);
    EXPECT_DOUBLE_EQ(resolved[0].state.resolvedAt.value(), 25.0);
}

TEST(SloEngine, ViolationAboveDirection)
{
    SloRule rule;
    rule.name = "mttr";
    rule.series = "mttr";
    rule.stat = BucketStat::Last;
    rule.threshold = 0.25;
    rule.violationIsAbove = true;
    rule.budget = 0.5;
    rule.shortWindow = Seconds{2.0};
    rule.longWindow = Seconds{4.0};
    rule.burnRate = 1.5;
    SloEngine engine;
    engine.addRule(rule);
    TimeSeriesBuffer buffer(Seconds{1.0}, 64);
    for (int i = 0; i < 4; ++i)
        buffer.record(Seconds{double(i) + 0.5}, 0.9);
    engine.evaluate(Seconds{4.0}, lookupFor(buffer));
    EXPECT_EQ(engine.activeCount(), 1u);
}

} // namespace
} // namespace agsim::obs::telemetry
