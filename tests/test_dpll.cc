/**
 * @file
 * DPLL tests: margin tracking, caps, slew limiting, droop response.
 */

#include <gtest/gtest.h>

#include "clock/dpll.h"
#include "common/error.h"
#include "common/units.h"
#include "power/vf_curve.h"

namespace agsim::clock {
namespace {

using namespace agsim::units;
using power::VfCurve;

class DpllTest : public ::testing::Test
{
  protected:
    VfCurve curve_;
    DpllParams params_;
};

TEST_F(DpllTest, SettlesToMarginTarget)
{
    const Dpll dpll(&curve_, params_);
    Dpll::State core{4.2_GHz};
    const Volts v = Volts{1.15};
    for (int i = 0; i < 10; ++i)
        dpll.step(core, v, Seconds{1e-3});
    EXPECT_NEAR(core.frequency, curve_.fmaxWithMargin(v), 1e3);
}

TEST_F(DpllTest, BoostsUnderHighVoltage)
{
    // At the full static setpoint with light load the DPLL overclocks.
    const Dpll dpll(&curve_, params_);
    Dpll::State core{4.2_GHz};
    const Volts v = curve_.vddStatic(4.2_GHz) - Volts{0.030}; // light drop
    for (int i = 0; i < 10; ++i)
        dpll.step(core, v, Seconds{1e-3});
    EXPECT_GT(core.frequency, Hertz{4.2e9});
    EXPECT_LE(core.frequency,
              Hertz{4.2e9 * curve_.params().overclockCeiling + 1.0});
}

TEST_F(DpllTest, SlowsUnderDroopedVoltage)
{
    const Dpll dpll(&curve_, params_);
    Dpll::State core{4.2_GHz};
    const Volts sagging = curve_.vminAt(4.2_GHz) - Volts{0.020};
    for (int i = 0; i < 10; ++i)
        dpll.step(core, sagging, Seconds{1e-3});
    EXPECT_LT(core.frequency, Hertz{4.2e9});
}

TEST_F(DpllTest, CapPinsFrequency)
{
    const Dpll dpll(&curve_, params_);
    Dpll::State core{4.2_GHz};
    core.cap = 4.2_GHz;
    const Volts generous = curve_.vddStatic(4.2_GHz);
    for (int i = 0; i < 10; ++i)
        dpll.step(core, generous, Seconds{1e-3});
    EXPECT_NEAR(core.frequency, Hertz{4.2e9}, Hertz{1.0});
    // Removing the cap lets it boost again.
    core.cap = Hertz{0.0};
    for (int i = 0; i < 10; ++i)
        dpll.step(core, generous, Seconds{1e-3});
    EXPECT_GT(core.frequency, Hertz{4.2e9});
}

TEST_F(DpllTest, FloorLimitsDownwardExcursion)
{
    const Dpll dpll(&curve_, params_);
    Dpll::State core{4.2_GHz};
    for (int i = 0; i < 100; ++i)
        dpll.step(core, Volts{0.2}, Seconds{1e-3}); // catastrophic voltage
    EXPECT_GE(core.frequency, params_.floorFrequency - Hertz{1.0});
}

TEST_F(DpllTest, SlewRateLimitsStep)
{
    DpllParams slow;
    slow.slewPerSecond = 0.01; // 1% per second: visibly slew-limited
    const Dpll dpll(&curve_, slow);
    Dpll::State core{4.2_GHz};
    const Volts generous = curve_.vddStatic(4.2_GHz);
    const Hertz before = core.frequency;
    dpll.step(core, generous, Seconds{1e-3});
    EXPECT_LE(core.frequency - before,
              before * 0.01 * 1e-3 + Hertz{1.0});
}

TEST_F(DpllTest, HardwareSlewIsEffectivelyInstant)
{
    // 7% in 10 ns means a millisecond step always settles.
    const Dpll dpll(&curve_, params_);
    Dpll::State core{3.0_GHz};
    const Volts v = Volts{1.15};
    dpll.step(core, v, Seconds{1e-3});
    EXPECT_NEAR(core.frequency, curve_.fmaxWithMargin(v), 1e3);
}

TEST_F(DpllTest, LockToOverridesLoop)
{
    const Dpll dpll(&curve_, params_);
    Dpll::State core{4.2_GHz};
    dpll.lockTo(core, 3.5_GHz);
    EXPECT_DOUBLE_EQ(core.frequency, Hertz{3.5e9});
}

TEST_F(DpllTest, DroopStallScalesWithDepthAndEvents)
{
    const Dpll dpll(&curve_, params_);
    Dpll::State core{4.2_GHz};
    const Seconds none = dpll.droopStall(core.frequency, Volts{0.0}, 3);
    EXPECT_DOUBLE_EQ(none, Seconds{0.0});
    EXPECT_DOUBLE_EQ(dpll.droopStall(core.frequency, Volts{0.020}, 0),
                     Seconds{0.0});
    const Seconds one = dpll.droopStall(core.frequency, Volts{0.020}, 1);
    const Seconds two = dpll.droopStall(core.frequency, Volts{0.020}, 2);
    EXPECT_GT(one, Seconds{0.0});
    EXPECT_NEAR(two, 2.0 * one, 1e-15);
    EXPECT_GT(dpll.droopStall(core.frequency, Volts{0.040}, 1), one);
    // A droop response is sub-microsecond per event: tiny.
    EXPECT_LT(one, Seconds{1e-6});
}

TEST_F(DpllTest, RejectsBadConstruction)
{
    EXPECT_THROW(Dpll(nullptr, params_), ConfigError);
    DpllParams bad = params_;
    bad.slewPerSecond = 0.0;
    EXPECT_THROW(Dpll(&curve_, bad), ConfigError);
}

} // namespace
} // namespace agsim::clock
