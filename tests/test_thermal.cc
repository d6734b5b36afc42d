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
    EXPECT_DOUBLE_EQ(model.ambient(), model.steadyState(Watts{0.0}));
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
    Celsius t = model.ambient();
    for (int i = 0; i < 100000; ++i)
        model.step(t, Watts{120.0}, Seconds{1e-3});
    EXPECT_NEAR(t, model.steadyState(Watts{120.0}), 0.1);
}

TEST(ThermalModel, ApproachIsMonotone)
{
    ThermalModel model;
    Celsius t = model.ambient();
    Celsius prev = t;
    for (int i = 0; i < 1000; ++i) {
        model.step(t, Watts{100.0}, Seconds{1e-2});
        EXPECT_GE(t, prev - Celsius{1e-12});
        prev = t;
    }
}

TEST(ThermalModel, PaperTemperatureWindow)
{
    // Paper Sec. 4.1: 27 °C at the lowest load to 38 °C at peak.
    ThermalModel model;
    const Celsius idle = model.steadyState(Watts{30.0}); // near-idle chip
    EXPECT_GT(idle, Celsius{25.0});
    EXPECT_LT(idle, Celsius{31.0});
    const Celsius peak = model.steadyState(Watts{140.0}); // peak power
    EXPECT_GT(peak, Celsius{34.0});
    EXPECT_LT(peak, Celsius{42.0});
}

TEST(ThermalModel, LargeStepDoesNotOvershoot)
{
    ThermalModel model;
    Celsius t = model.ambient();
    model.step(t, Watts{100.0}, Seconds{1e6}); // absurdly long step
    EXPECT_NEAR(t, model.steadyState(Watts{100.0}), 1e-6);
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
    Celsius t = model.ambient();
    const Seconds dts[] = {Seconds{1e-3}, Seconds{0.032}, Seconds{1e-3},
                           Seconds{0.512}, Seconds{0.5e-3}, Seconds{1e-3}};
    for (int round = 0; round < 50; ++round) {
        for (Seconds dt : dts) {
            const Watts power{60.0 + 2.0 * round};
            ThermalModel fresh;
            Celsius freshT = t;
            fresh.step(freshT, power, dt);
            model.step(t, power, dt);
            ASSERT_EQ(t.value(), freshT.value())
                << "round " << round << " dt " << dt.value();
        }
    }
}

} // namespace
} // namespace agsim::power
