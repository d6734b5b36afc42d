/**
 * @file
 * Telemetry tests: 32 ms window cadence, sticky-vs-sample semantics,
 * window means.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "sensors/telemetry.h"

namespace agsim::sensors {
namespace {

StepObservation
makeObs(size_t cores, int sample, int sticky, double power)
{
    StepObservation obs;
    obs.sampleCpm.assign(cores, sample);
    obs.stickyCpm.assign(cores, sticky);
    obs.coreVoltage.assign(cores, Volts{1.15});
    obs.coreFrequency.assign(cores, Hertz{4.2e9});
    obs.chipPower = Watts{power};
    obs.railCurrent = Watts{power} / Volts{1.15};
    obs.setpoint = Volts{1.2};
    return obs;
}

TEST(Telemetry, WindowClosesAfter32ms)
{
    Telemetry telemetry(8);
    Telemetry::State window = telemetry.initialState();
    const auto obs = makeObs(8, 5, 5, 100.0);
    for (int i = 0; i < 31; ++i)
        telemetry.step(window, obs, Seconds{1e-3});
    EXPECT_FALSE(telemetry.hasWindows());
    telemetry.step(window, obs, Seconds{1e-3});
    ASSERT_TRUE(telemetry.hasWindows());
    EXPECT_EQ(telemetry.windows().size(), 1u);
    EXPECT_NEAR(telemetry.latest().time, Seconds{0.032}, Seconds{1e-9});
}

TEST(Telemetry, MultipleWindowsAccumulate)
{
    Telemetry telemetry(4);
    Telemetry::State window = telemetry.initialState();
    const auto obs = makeObs(4, 5, 5, 100.0);
    for (int i = 0; i < 96; ++i)
        telemetry.step(window, obs, Seconds{1e-3});
    EXPECT_EQ(telemetry.windows().size(), 3u);
}

TEST(Telemetry, StickyKeepsWindowMinimum)
{
    Telemetry telemetry(1);
    Telemetry::State window = telemetry.initialState();
    // Mostly quiet reads at 6, one droop to 2 mid-window.
    for (int i = 0; i < 32; ++i) {
        const int sticky = (i == 10) ? 2 : 6;
        telemetry.step(window, makeObs(1, 6, sticky, 100.0), Seconds{1e-3});
    }
    ASSERT_TRUE(telemetry.hasWindows());
    EXPECT_EQ(telemetry.latest().stickyCpm[0], 2);
    EXPECT_EQ(telemetry.latest().sampleCpm[0], 6);
}

TEST(Telemetry, StickyResetsBetweenWindows)
{
    Telemetry telemetry(1);
    Telemetry::State window = telemetry.initialState();
    for (int i = 0; i < 32; ++i)
        telemetry.step(window, makeObs(1, 6, 2, 100.0), Seconds{1e-3});
    for (int i = 0; i < 32; ++i)
        telemetry.step(window, makeObs(1, 6, 5, 100.0), Seconds{1e-3});
    ASSERT_EQ(telemetry.windows().size(), 2u);
    EXPECT_EQ(telemetry.windows()[0].stickyCpm[0], 2);
    EXPECT_EQ(telemetry.windows()[1].stickyCpm[0], 5);
}

TEST(Telemetry, WindowMeansAreTimeWeighted)
{
    Telemetry telemetry(1);
    Telemetry::State window = telemetry.initialState();
    for (int i = 0; i < 16; ++i)
        telemetry.step(window, makeObs(1, 6, 6, 80.0), Seconds{1e-3});
    for (int i = 0; i < 16; ++i)
        telemetry.step(window, makeObs(1, 6, 6, 120.0), Seconds{1e-3});
    ASSERT_TRUE(telemetry.hasWindows());
    EXPECT_NEAR(telemetry.latest().meanChipPower, Watts{100.0}, Watts{1e-9});
    EXPECT_NEAR(telemetry.latest().meanSetpoint, Volts{1.2}, Volts{1e-12});
    EXPECT_NEAR(telemetry.latest().meanCoreVoltage[0], Volts{1.15},
                Volts{1e-12});
}

TEST(Telemetry, DecompositionAveraged)
{
    Telemetry telemetry(1);
    Telemetry::State window = telemetry.initialState();
    auto obs = makeObs(1, 6, 6, 100.0);
    obs.decomposition.loadline = Volts{0.040};
    obs.decomposition.irGlobal = Volts{0.020};
    obs.decomposition.irLocal = Volts{0.010};
    for (int i = 0; i < 32; ++i)
        telemetry.step(window, obs, Seconds{1e-3});
    EXPECT_NEAR(telemetry.latest().meanDecomposition.loadline, Volts{0.040}, Volts{1e-9});
    EXPECT_NEAR(telemetry.latest().meanDecomposition.passive(), Volts{0.070}, Volts{1e-9});
}

TEST(Telemetry, MaxWindowsBounded)
{
    TelemetryParams params;
    params.maxWindows = 2;
    Telemetry telemetry(1, params);
    Telemetry::State window = telemetry.initialState();
    EXPECT_EQ(telemetry.params().maxWindows, 2u);
    const auto obs = makeObs(1, 5, 5, 100.0);
    for (int i = 0; i < 32 * 5; ++i)
        telemetry.step(window, obs, Seconds{1e-3});
    EXPECT_EQ(telemetry.windows().size(), 2u);
}

TEST(Telemetry, MaxWindowsZeroIsUnbounded)
{
    Telemetry telemetry(1);
    Telemetry::State window = telemetry.initialState();
    const auto obs = makeObs(1, 5, 5, 100.0);
    for (int i = 0; i < 32 * 40; ++i)
        telemetry.step(window, obs, Seconds{1e-3});
    EXPECT_EQ(telemetry.windows().size(), 40u);
}

TEST(Telemetry, MaxWindowsEvictsOldestFirst)
{
    TelemetryParams params;
    params.maxWindows = 2;
    Telemetry telemetry(1, params);
    Telemetry::State window = telemetry.initialState();
    const auto obs = makeObs(1, 5, 5, 100.0);
    for (int i = 0; i < 32 * 5; ++i)
        telemetry.step(window, obs, Seconds{1e-3});
    // Five windows closed; the ring keeps the newest two (4th, 5th).
    ASSERT_EQ(telemetry.windows().size(), 2u);
    EXPECT_NEAR(telemetry.windows()[0].time, Seconds{4 * 0.032},
                Seconds{1e-9});
    EXPECT_NEAR(telemetry.windows()[1].time, Seconds{5 * 0.032},
                Seconds{1e-9});
    EXPECT_NEAR(telemetry.latest().time, Seconds{5 * 0.032},
                Seconds{1e-9});
}

TEST(Telemetry, ClearWindowsKeepsAccumulation)
{
    Telemetry telemetry(1);
    Telemetry::State window = telemetry.initialState();
    const auto obs = makeObs(1, 5, 5, 100.0);
    for (int i = 0; i < 48; ++i)
        telemetry.step(window, obs, Seconds{1e-3});
    telemetry.clearWindows();
    EXPECT_FALSE(telemetry.hasWindows());
    // 16 ms of the second window already elapsed; 16 more close it.
    for (int i = 0; i < 16; ++i)
        telemetry.step(window, obs, Seconds{1e-3});
    EXPECT_TRUE(telemetry.hasWindows());
}

TEST(Telemetry, LatestOnEmptyThrows)
{
    Telemetry telemetry(1);
    EXPECT_THROW(telemetry.latest(), ConfigError);
}

TEST(Telemetry, SizeMismatchPanics)
{
    Telemetry telemetry(2);
    Telemetry::State window = telemetry.initialState();
    EXPECT_THROW(
        telemetry.step(window, makeObs(1, 5, 5, 100.0), Seconds{1e-3}),
        InternalError);
}

TEST(Telemetry, RejectsBadConstruction)
{
    EXPECT_THROW(Telemetry(0), ConfigError);
    TelemetryParams params;
    params.windowLength = Seconds{0.0};
    EXPECT_THROW(Telemetry(1, params), ConfigError);
}

} // namespace
} // namespace agsim::sensors
