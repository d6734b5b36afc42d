/**
 * @file
 * di/dt noise tests: the smoothing law (typical noise shrinks with
 * active cores), the alignment law (worst-case grows), droop arrival
 * statistics, and determinism.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "pdn/didt.h"

namespace agsim::pdn {
namespace {

using namespace agsim::units;

std::vector<Volts>
amps(size_t active, Volts amplitude, size_t cores = 8)
{
    std::vector<Volts> out(cores, Volts{0.0});
    for (size_t i = 0; i < active; ++i)
        out[i] = amplitude;
    return out;
}

TEST(Didt, TypicalLevelZeroWhenIdle)
{
    DidtModel model;
    EXPECT_DOUBLE_EQ(model.typicalLevel(amps(0, Volts{0.0})), Volts{0.0});
}

TEST(Didt, TypicalLevelEqualsAmplitudeForOneCore)
{
    DidtModel model;
    EXPECT_NEAR(model.typicalLevel(amps(1, 12.0_mV)), 12.0_mV, 1e-12);
}

TEST(Didt, SmoothingFollowsInverseSqrt)
{
    // Sec. 4.3: staggered multi-core activity smooths typical ripple.
    DidtModel model;
    const Volts amp = 12.0_mV;
    const Volts one = model.typicalLevel(amps(1, amp));
    const Volts four = model.typicalLevel(amps(4, amp));
    const Volts eight = model.typicalLevel(amps(8, amp));
    EXPECT_NEAR(four, one / 2.0, 1e-12);
    EXPECT_NEAR(eight, one / std::sqrt(8.0), 1e-12);
    EXPECT_LT(eight, four);
}

TEST(Didt, WorstDepthGrowsWithActiveCores)
{
    // Sec. 4.3: random alignment deepens worst-case droops slightly.
    DidtModel model;
    const Volts amp = 22.0_mV;
    Volts prev = Volts{0.0};
    for (size_t active = 1; active <= 8; ++active) {
        const Volts depth = model.worstDepth(amps(active, amp));
        EXPECT_GT(depth, prev);
        prev = depth;
    }
    // Growth is "slight": less than 2x from 1 to 8 cores.
    EXPECT_LT(model.worstDepth(amps(8, amp)),
              2.0 * model.worstDepth(amps(1, amp)));
}

TEST(Didt, WorstDepthZeroWhenIdle)
{
    DidtModel model;
    EXPECT_DOUBLE_EQ(model.worstDepth(amps(0, Volts{0.0})), Volts{0.0});
}

TEST(Didt, StepDeterministicBySeed)
{
    const DidtModel a;
    const DidtModel b;
    Rng rngA(7, 1);
    Rng rngB(7, 1);
    const auto ta = amps(4, 12.0_mV);
    const auto wa = amps(4, 22.0_mV);
    for (int i = 0; i < 100; ++i) {
        const auto sa = a.step(rngA, ta, wa, Seconds{1e-3});
        const auto sb = b.step(rngB, ta, wa, Seconds{1e-3});
        ASSERT_DOUBLE_EQ(sa.typicalNow, sb.typicalNow);
        ASSERT_DOUBLE_EQ(sa.worstDroop, sb.worstDroop);
        ASSERT_EQ(sa.droopEvents, sb.droopEvents);
    }
}

TEST(Didt, DroopArrivalRateMatchesConfig)
{
    DidtParams params;
    params.droopRatePerSecond = 4.0;
    params.ratePerExtraCore = 0.0;
    const DidtModel model(params);
    Rng rng(13);
    const auto ta = amps(1, 12.0_mV);
    const auto wa = amps(1, 22.0_mV);
    int events = 0;
    const int steps = 100000; // 100 s at 1 ms
    for (int i = 0; i < steps; ++i)
        events += model.step(rng, ta, wa, Seconds{1e-3}).droopEvents;
    EXPECT_NEAR(double(events) / 100.0, 4.0, 0.5);
}

TEST(Didt, DroopRateGrowsWithCores)
{
    const DidtModel model;
    Rng rng(17);
    auto countEvents = [&model, &rng](size_t active) {
        const auto ta = amps(active, 12.0_mV);
        const auto wa = amps(active, 22.0_mV);
        int events = 0;
        for (int i = 0; i < 50000; ++i)
            events += model.step(rng, ta, wa, Seconds{1e-3}).droopEvents;
        return events;
    };
    const int one = countEvents(1);
    const int eight = countEvents(8);
    EXPECT_GT(eight, one * 2);
}

TEST(Didt, TypicalSampleJittersAroundMean)
{
    const DidtModel model;
    Rng rng(23);
    const auto ta = amps(4, 12.0_mV);
    const auto wa = amps(4, 22.0_mV);
    Volts sum = Volts{0.0};
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const auto s = model.step(rng, ta, wa, Seconds{1e-3});
        EXPECT_GE(s.typicalNow, Volts{0.0});
        sum += s.typicalNow;
    }
    EXPECT_NEAR(sum / double(n), model.typicalLevel(ta), Volts{0.001});
}

TEST(Didt, NoDroopsWhenIdle)
{
    const DidtModel model;
    Rng rng(29);
    const auto zero = amps(0, Volts{0.0});
    for (int i = 0; i < 1000; ++i) {
        const auto s = model.step(rng, zero, zero, Seconds{1e-3});
        ASSERT_EQ(s.droopEvents, 0);
        ASSERT_DOUBLE_EQ(s.worstDroop, Volts{0.0});
    }
}

TEST(Didt, MismatchedVectorsPanic)
{
    const DidtModel model;
    Rng rng(0x5EEDu);
    EXPECT_THROW(model.step(rng, amps(1, 1.0_mV, 8), amps(1, 1.0_mV, 4),
                            Seconds{1e-3}),
                 InternalError);
}

TEST(Didt, RejectsBadParams)
{
    DidtParams params;
    params.droopRatePerSecond = -1.0;
    EXPECT_THROW(DidtModel{params}, ConfigError);

    params = DidtParams();
    params.depthJitter = -0.1;
    EXPECT_THROW(DidtModel{params}, ConfigError);
}

} // namespace
} // namespace agsim::pdn
