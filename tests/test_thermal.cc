/**
 * @file
 * Thermal model tests, including the paper's 27-38 °C observation.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "power/thermal_model.h"

namespace agsim::power {
namespace {

TEST(ThermalModel, StartsAtAmbient)
{
    ThermalModel model;
    EXPECT_DOUBLE_EQ(model.temperature(), model.steadyState(Watts{0.0}));
}

TEST(ThermalModel, SteadyStateLinearInPower)
{
    ThermalParams params;
    params.ambient = Celsius{25.0};
    params.thermalResistance = Div<Celsius, Watts>{0.1};
    ThermalModel model(params);
    EXPECT_DOUBLE_EQ(model.steadyState(Watts{100.0}), Celsius{35.0});
    EXPECT_DOUBLE_EQ(model.steadyState(Watts{0.0}), Celsius{25.0});
}

TEST(ThermalModel, ConvergesToSteadyState)
{
    ThermalModel model;
    for (int i = 0; i < 100000; ++i)
        model.step(Watts{120.0}, Seconds{1e-3});
    EXPECT_NEAR(model.temperature(), model.steadyState(Watts{120.0}), 0.1);
}

TEST(ThermalModel, ApproachIsMonotone)
{
    ThermalModel model;
    Celsius prev = model.temperature();
    for (int i = 0; i < 1000; ++i) {
        model.step(Watts{100.0}, Seconds{1e-2});
        EXPECT_GE(model.temperature(), prev - Celsius{1e-12});
        prev = model.temperature();
    }
}

TEST(ThermalModel, SettleJumpsToSteadyState)
{
    ThermalModel model;
    model.settle(Watts{140.0});
    EXPECT_DOUBLE_EQ(model.temperature(), model.steadyState(Watts{140.0}));
}

TEST(ThermalModel, PaperTemperatureWindow)
{
    // Paper Sec. 4.1: 27 °C at the lowest load to 38 °C at peak.
    ThermalModel model;
    model.settle(Watts{30.0}); // near-idle chip
    EXPECT_GT(model.temperature(), Celsius{25.0});
    EXPECT_LT(model.temperature(), Celsius{31.0});
    model.settle(Watts{140.0}); // peak chip power
    EXPECT_GT(model.temperature(), Celsius{34.0});
    EXPECT_LT(model.temperature(), Celsius{42.0});
}

TEST(ThermalModel, ResetReturnsToAmbient)
{
    ThermalModel model;
    model.settle(Watts{140.0});
    model.reset();
    EXPECT_DOUBLE_EQ(model.temperature(), Celsius{25.0});
}

TEST(ThermalModel, LargeStepDoesNotOvershoot)
{
    ThermalModel model;
    model.step(Watts{100.0}, Seconds{1e6}); // absurdly long step
    EXPECT_NEAR(model.temperature(), model.steadyState(Watts{100.0}), 1e-6);
}

TEST(ThermalModel, RejectsBadParams)
{
    ThermalParams params;
    params.timeConstant = Seconds{0.0};
    EXPECT_THROW(ThermalModel{params}, ConfigError);

    params = ThermalParams();
    params.thermalResistance = Div<Celsius, Watts>{-0.1};
    EXPECT_THROW(ThermalModel{params}, ConfigError);
}

TEST(ThermalModel, AlternatingStepSizesMatchAFreshModel)
{
    // Sampled spans alternate a 1 ms tick with longer spans; each step
    // must equal a fresh model stepped once from the same temperature.
    ThermalModel model;
    const Seconds dts[] = {Seconds{1e-3}, Seconds{0.032}, Seconds{1e-3},
                           Seconds{0.512}, Seconds{0.5e-3}, Seconds{1e-3}};
    for (int round = 0; round < 50; ++round) {
        for (Seconds dt : dts) {
            const Watts power{60.0 + 2.0 * round};
            ThermalModel fresh;
            fresh.restoreTemperature(model.temperature());
            fresh.step(power, dt);
            model.step(power, dt);
            ASSERT_EQ(model.temperature().value(),
                      fresh.temperature().value())
                << "round " << round << " dt " << dt.value();
        }
    }
}

} // namespace
} // namespace agsim::power
