/**
 * @file
 * Core power model tests: scaling laws, leakage behaviour, gating, and
 * the exactly rounded cube behind the V^3 leakage law.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "power/core_power_model.h"

namespace agsim::power {
namespace {

using namespace agsim::units;

TEST(CorePowerModel, DynamicAtReferencePoint)
{
    CorePowerModel model;
    const auto &p = model.params();
    EXPECT_NEAR(model.coreDynamic(p.refVoltage, p.refFrequency, 1.0),
                p.coreDynamicAtRef, 1e-9);
}

TEST(CorePowerModel, DynamicQuadraticInVoltage)
{
    CorePowerModel model;
    const auto &p = model.params();
    const Watts base = model.coreDynamic(Volts{1.0}, p.refFrequency, 1.0);
    const Watts doubled = model.coreDynamic(Volts{2.0}, p.refFrequency, 1.0);
    EXPECT_NEAR(doubled / base, 4.0, 1e-9);
}

TEST(CorePowerModel, DynamicLinearInFrequencyAndActivity)
{
    CorePowerModel model;
    const auto &p = model.params();
    const Watts base = model.coreDynamic(p.refVoltage, Hertz{2.0e9}, 0.5);
    EXPECT_NEAR(model.coreDynamic(p.refVoltage, Hertz{4.0e9}, 0.5) / base, 2.0,
                1e-9);
    EXPECT_NEAR(model.coreDynamic(p.refVoltage, Hertz{2.0e9}, 1.0) / base, 2.0,
                1e-9);
}

TEST(CorePowerModel, ZeroActivityZeroDynamic)
{
    CorePowerModel model;
    EXPECT_DOUBLE_EQ(model.coreDynamic(Volts{1.2}, Hertz{4.2e9}, 0.0), Watts{0.0});
}

TEST(CorePowerModel, LeakageAtReference)
{
    CorePowerModel model;
    const auto &p = model.params();
    const double ref = model.leakageTemperatureFactor(p.refTemperature);
    EXPECT_NEAR(model.coreLeakage(p.refVoltage, ref, false),
                p.coreLeakageAtRef, 1e-9);
}

TEST(CorePowerModel, LeakageDoublesPerTemperatureStep)
{
    CorePowerModel model;
    const auto &p = model.params();
    const Watts cold = model.coreLeakage(
        p.refVoltage, model.leakageTemperatureFactor(p.refTemperature),
        false);
    const Watts hot = model.coreLeakage(
        p.refVoltage,
        model.leakageTemperatureFactor(p.refTemperature +
                                       p.leakageDoublingTemp),
        false);
    EXPECT_NEAR(hot / cold, 2.0, 1e-9);
}

TEST(CorePowerModel, LeakageVoltageExponent)
{
    CorePowerModel model;
    const auto &p = model.params();
    const double ref = model.leakageTemperatureFactor(p.refTemperature);
    const Watts lo = model.coreLeakage(p.refVoltage * 0.9, ref, false);
    const Watts hi = model.coreLeakage(p.refVoltage, ref, false);
    // V^3 law: 0.9^3 = 0.729.
    EXPECT_NEAR(lo / hi, 0.729, 1e-3);
}

TEST(CorePowerModel, GatingRemovesNearlyAllLeakage)
{
    CorePowerModel model;
    const auto &p = model.params();
    const double ref = model.leakageTemperatureFactor(p.refTemperature);
    const Watts on = model.coreLeakage(p.refVoltage, ref, false);
    const Watts gated = model.coreLeakage(p.refVoltage, ref, true);
    EXPECT_NEAR(gated / on, p.gatedLeakageFraction, 1e-9);
    EXPECT_LT(gated, Watts{0.2});
}

TEST(CorePowerModel, UncoreScalesWithVoltage)
{
    CorePowerModel model;
    const auto &p = model.params();
    const double ref = model.leakageTemperatureFactor(p.refTemperature);
    EXPECT_NEAR(model.uncore(p.refVoltage, ref), p.uncoreAtRef, 1e-9);
    EXPECT_LT(model.uncore(p.refVoltage * 0.9, ref), p.uncoreAtRef);
}

TEST(CorePowerModel, SingleSocketEnvelopeMatchesPaper)
{
    // Fig. 3a: one active core ~60 W, eight active ~130-140 W for a
    // raytrace-class workload at the static 1.2 V / 4.2 GHz point
    // (before PDN dissipation, which the chip model adds).
    CorePowerModel model;
    const Volts v = Volts{1.18}; // roughly the on-chip voltage under load
    const double t = model.leakageTemperatureFactor(Celsius{36.0});
    const double intensity = 1.03;

    const Watts idleCore = model.coreDynamic(v, Hertz{4.2e9},
                                             model.idleActivity()) +
                           model.coreLeakage(v, t, false);
    const Watts busyCore = model.coreDynamic(v, Hertz{4.2e9}, intensity) +
                           model.coreLeakage(v, t, false);
    const Watts uncore = model.uncore(v, t);

    const Watts oneActive = uncore + busyCore + 7 * idleCore;
    const Watts eightActive = uncore + 8 * busyCore;
    EXPECT_GT(oneActive, Watts{50.0});
    EXPECT_LT(oneActive, Watts{72.0});
    EXPECT_GT(eightActive, Watts{115.0});
    EXPECT_LT(eightActive, Watts{145.0});
}

TEST(CorePowerModel, RejectsBadParams)
{
    PowerModelParams params;
    params.refVoltage = Volts{0.0};
    EXPECT_THROW(CorePowerModel{params}, ConfigError);

    params = PowerModelParams();
    params.gatedLeakageFraction = 1.5;
    EXPECT_THROW(CorePowerModel{params}, ConfigError);

    params = PowerModelParams();
    params.coreDynamicAtRef = -Watts{1.0};
    EXPECT_THROW(CorePowerModel{params}, ConfigError);
}

TEST(CorePowerModel, NegativeActivityPanics)
{
    CorePowerModel model;
    EXPECT_THROW(model.coreDynamic(Volts{1.2}, Hertz{4.2e9}, -0.1), InternalError);
}

/** std::pow evaluated at run time, never folded by the compiler. */
double
runtimePow(double x, double y)
{
    volatile double base = x;
    return std::pow(base, y);
}

/** Bit-exact double equality (NaN equals NaN of the same payload). */
bool
sameBits(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(CertifiedCube, MatchesPowOverSeededSamples)
{
    // The range the solver sees (vr = V / 1.2 V) and then some.
    CorePowerModel model;
    Rng rng(0xC0BEull);
    constexpr int kSamples = 10'000'000;
    int mismatches = 0;
    int fallbacks = 0;
    double firstMismatch = 0.0;
    for (int i = 0; i < kSamples; ++i) {
        const double vr = rng.uniform(0.5, 1.5);
        const double expected = std::pow(vr, 3.0);
        double cube = 0.0;
        if (!certifiedCube(vr, cube))
            ++fallbacks;
        else if (!sameBits(cube, expected) && mismatches++ == 0)
            firstMismatch = vr;
        if (!sameBits(model.leakageVoltageFactor(vr), expected) &&
            mismatches++ == 0) {
            firstMismatch = vr;
        }
    }
    EXPECT_EQ(mismatches, 0) << "first at vr = " << firstMismatch;
    // The 0.45 ULP acceptance band leaves ~10% of cubes to std::pow.
    EXPECT_GT(fallbacks, kSamples / 20);
    EXPECT_LT(fallbacks, kSamples / 5);
}

TEST(CertifiedCube, ExactOnPowersOfTwo)
{
    for (int e = -100; e <= 100; ++e) {
        const double x = std::ldexp(1.0, e);
        double cube = 0.0;
        ASSERT_TRUE(certifiedCube(x, cube)) << "2^" << e;
        EXPECT_EQ(cube, std::ldexp(1.0, 3 * e));
        EXPECT_TRUE(sameBits(cube, runtimePow(x, 3.0))) << "2^" << e;
    }
    double cube = 0.0;
    ASSERT_TRUE(certifiedCube(1.0, cube));
    EXPECT_EQ(cube, 1.0);
}

TEST(CertifiedCube, FallbackSamplesStillMatchPow)
{
    CorePowerModel model;
    Rng rng(0xFA11ull);
    int fallbacks = 0;
    while (fallbacks < 1000) {
        const double vr = rng.uniform(0.5, 1.5);
        double cube = 0.0;
        if (certifiedCube(vr, cube))
            continue;
        ++fallbacks;
        ASSERT_TRUE(sameBits(model.leakageVoltageFactor(vr),
                             runtimePow(vr, 3.0)))
            << "vr = " << vr;
    }
}

TEST(CertifiedCube, RangeEdgesFallBackToPow)
{
    CorePowerModel model;
    const double lo = std::ldexp(1.0, -100);
    const double hi = std::ldexp(1.0, 100);
    double cube = 0.0;
    EXPECT_TRUE(certifiedCube(lo, cube));
    EXPECT_TRUE(certifiedCube(hi, cube));
    for (double x : {std::nextafter(lo, 0.0), std::nextafter(hi, 2.0 * hi),
                     0.0, -0.0, -1.0, 1e-310, 1e200,
                     std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_FALSE(certifiedCube(x, cube)) << x;
        EXPECT_TRUE(sameBits(model.leakageVoltageFactor(x),
                             runtimePow(x, 3.0)))
            << x;
    }
}

TEST(CertifiedCube, OtherExponentsUsePow)
{
    PowerModelParams params;
    params.leakageVoltageExponent = 2.5;
    CorePowerModel model(params);
    Rng rng(0x25ull);
    for (int i = 0; i < 100000; ++i) {
        const double vr = rng.uniform(0.5, 1.5);
        ASSERT_TRUE(sameBits(model.leakageVoltageFactor(vr),
                             std::pow(vr, 2.5)))
            << "vr = " << vr;
    }
}

TEST(CorePowerModel, LeakageMatchesTheClosedForm)
{
    // coreLeakage and uncore equal the documented formula evaluated the
    // straightforward way, pow and exp2 per call, bit for bit.
    for (double exponent : {3.0, 2.5}) {
        PowerModelParams p;
        p.leakageVoltageExponent = exponent;
        CorePowerModel model(p);
        Rng rng(0x1EACull);
        for (int i = 0; i < 20000; ++i) {
            const Volts v{rng.uniform(0.8, 1.3)};
            const Celsius t{rng.uniform(20.0, 90.0)};
            const double vr = v / p.refVoltage;
            const double scale =
                std::pow(vr, exponent) *
                std::exp2((t - p.refTemperature) / p.leakageDoublingTemp);
            const double factor = model.leakageTemperatureFactor(t);
            const Watts full = p.coreLeakageAtRef * scale;
            ASSERT_EQ(model.coreLeakage(v, factor, false).value(),
                      full.value());
            ASSERT_EQ(model.coreLeakage(v, factor, true).value(),
                      (full * p.gatedLeakageFraction).value());
            const Watts uncore = 0.7 * p.uncoreAtRef * vr * vr +
                                 0.3 * p.uncoreAtRef * scale;
            ASSERT_EQ(model.uncore(v, factor).value(), uncore.value());
        }
    }
}

} // namespace
} // namespace agsim::power
