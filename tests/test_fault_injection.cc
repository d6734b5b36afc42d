/**
 * @file
 * Fault subsystem tests: plan validation and scheduling, injector
 * composition rules, CPM/VRM injection points, the StaticGuardband
 * safety property (no timing emergency under any control-path fault
 * plan), and the determinism contract (same seed + plan => bit-identical
 * telemetry).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chip/chip.h"
#include "common/error.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "pdn/vrm.h"
#include "sensors/cpm_bank.h"

namespace agsim::fault {
namespace {

using namespace agsim::units;
using chip::Chip;
using chip::ChipConfig;
using chip::CoreLoad;
using chip::GuardbandMode;

TEST(FaultPlan, BuildersAppendSpecs)
{
    FaultPlan plan;
    plan.cpmOptimisticBias(Seconds{0.1}, Seconds{0.5}, 20.0_mV, 3)
        .cpmStuckAt(Seconds{0.2}, Seconds{0.0}, 7)
        .cpmDropout(Seconds{0.3}, Seconds{0.1})
        .vrmDacStuck(Seconds{0.4})
        .vrmDacOffset(Seconds{0.5}, Seconds{0.2}, -5.0_mV)
        .firmwareStall(Seconds{0.6}, Seconds{0.3})
        .droopStorm(Seconds{0.7}, Seconds{0.4}, 5.0, 1.2);
    ASSERT_EQ(plan.faults.size(), 7u);
    EXPECT_EQ(plan.faults[0].kind, FaultKind::CpmOptimisticBias);
    EXPECT_EQ(plan.faults[0].core, 3);
    EXPECT_EQ(plan.faults[1].kind, FaultKind::CpmStuckAt);
    EXPECT_DOUBLE_EQ(plan.faults[1].magnitude, 7.0);
    EXPECT_EQ(plan.faults[6].kind, FaultKind::DroopStorm);
    EXPECT_DOUBLE_EQ(plan.faults[6].depthScale, 1.2);
    EXPECT_NO_THROW(plan.validate(8));
}

TEST(FaultPlan, ActiveAtRespectsWindows)
{
    FaultSpec spec;
    spec.start = Seconds{1.0};
    spec.duration = Seconds{0.5};
    EXPECT_FALSE(spec.activeAt(Seconds{0.99}));
    EXPECT_TRUE(spec.activeAt(Seconds{1.0}));
    EXPECT_TRUE(spec.activeAt(Seconds{1.49}));
    EXPECT_FALSE(spec.activeAt(Seconds{1.5}));

    spec.duration = Seconds{0.0}; // forever
    EXPECT_TRUE(spec.activeAt(Seconds{1e9}));
}

TEST(FaultPlan, ValidationRejectsNonsense)
{
    {
        FaultPlan plan;
        plan.cpmDropout(Seconds{-0.1}, Seconds{0.0});
        EXPECT_THROW(plan.validate(8), ConfigError);
    }
    {
        FaultPlan plan;
        plan.cpmOptimisticBias(Seconds{0.0}, Seconds{0.0}, 10.0_mV, 8); // core out of range
        EXPECT_THROW(plan.validate(8), ConfigError);
    }
    {
        FaultPlan plan;
        plan.droopStorm(Seconds{0.0}, Seconds{1.0}, 0.0); // non-positive rate multiplier
        EXPECT_THROW(plan.validate(8), ConfigError);
    }
    {
        FaultPlan plan;
        plan.cpmStuckAt(Seconds{0.0}, Seconds{1.0}, -2); // negative detector position
        EXPECT_THROW(plan.validate(8), ConfigError);
    }
    {
        FaultPlan plan;
        plan.firmwareStall(Seconds{0.1}, Seconds{-0.5}); // negative duration
        EXPECT_THROW(plan.validate(8), ConfigError);
    }
    {
        FaultPlan plan; // overlapping same-kind/same-target windows
        plan.droopStorm(Seconds{0.0}, Seconds{1.0}, 2.0)
            .droopStorm(Seconds{0.5}, Seconds{1.0}, 3.0);
        EXPECT_THROW(plan.validate(8), ConfigError);
    }
    {
        FaultPlan plan; // an open-ended spec shadows any later same-target spec
        plan.vrmDacStuck(Seconds{0.0})
            .vrmDacStuck(Seconds{5.0}, Seconds{1.0});
        EXPECT_THROW(plan.validate(8), ConfigError);
    }
    {
        FaultPlan plan; // non-monotonic start times for one target
        plan.cpmDropout(Seconds{1.0}, Seconds{0.1}, 2)
            .cpmDropout(Seconds{0.5}, Seconds{0.1}, 2);
        EXPECT_THROW(plan.validate(8), ConfigError);
    }
    {
        FaultPlan plan;
        plan.slowRestart(Seconds{0.0}, Seconds{1.0}, 0.5); // factor < 1
        EXPECT_THROW(plan.validate(8, FaultScope::Server), ConfigError);
    }
}

TEST(FaultPlan, ServerScopeKindsRejectedAtChipScope)
{
    FaultPlan plan;
    plan.serverCrash(Seconds{0.1}, Seconds{0.2});
    EXPECT_THROW(plan.validate(8), ConfigError);
    EXPECT_THROW(plan.validate(8, FaultScope::Chip), ConfigError);
    EXPECT_NO_THROW(plan.validate(8, FaultScope::Server));
    EXPECT_THROW(FaultInjector(plan, 8), ConfigError);
    EXPECT_NO_THROW(FaultInjector(plan, 8, FaultScope::Server));
}

TEST(FaultInjector, ServerScopeEffectsAndRestoreClock)
{
    FaultPlan plan;
    plan.serverCrash(Seconds{0.1}, Seconds{0.2})
        .serverHang(Seconds{0.5}, Seconds{0.1})
        .vrmShutdown(Seconds{0.8}, Seconds{0.1})
        .slowRestart(Seconds{0.0}, Seconds{1.0}, 3.0);
    FaultInjector injector(plan, 8, FaultScope::Server);
    EXPECT_EQ(injector.scope(), FaultScope::Server);

    injector.advance(Seconds{0.15});
    EXPECT_TRUE(injector.active().serverCrash);
    EXPECT_FALSE(injector.active().serverHang);
    EXPECT_NEAR(injector.active().restartSlowdown, 3.0, 1e-12);

    injector.advance(Seconds{0.4}); // t = 0.55: hang window
    EXPECT_FALSE(injector.active().serverCrash);
    EXPECT_TRUE(injector.active().serverHang);

    injector.restoreClock(Seconds{0.85}); // jump into the VRM outage
    EXPECT_EQ(injector.now(), Seconds{0.85});
    EXPECT_TRUE(injector.active().vrmShutdown);
    EXPECT_FALSE(injector.active().serverHang);
    EXPECT_THROW(injector.restoreClock(Seconds{-1.0}), ConfigError);
}

TEST(FaultInjector, SchedulesAndExpiresFaults)
{
    FaultPlan plan;
    plan.firmwareStall(Seconds{0.10}, Seconds{0.05});
    FaultInjector injector(plan, 8);
    EXPECT_FALSE(injector.active().any);

    injector.advance(Seconds{0.09});
    EXPECT_FALSE(injector.active().firmwareStall);
    injector.advance(Seconds{0.02}); // t = Seconds{0.11}, inside window
    EXPECT_TRUE(injector.active().firmwareStall);
    EXPECT_EQ(injector.activeSpecCount(), 1u);
    injector.advance(Seconds{0.05}); // t = Seconds{0.16}, past window
    EXPECT_FALSE(injector.active().firmwareStall);
    EXPECT_FALSE(injector.active().any);

    injector.reset();
    EXPECT_EQ(injector.now(), Seconds{0.0});
    EXPECT_FALSE(injector.active().any);
}

TEST(FaultInjector, ComposesOverlappingFaults)
{
    // Same kind on *different* targets (chip-wide + one core) and
    // different kinds may overlap; validate() only rejects same-kind/
    // same-target overlap.
    FaultPlan plan;
    plan.cpmOptimisticBias(Seconds{0.0}, Seconds{0.0}, 10.0_mV)       // all cores
        .cpmOptimisticBias(Seconds{0.0}, Seconds{0.0}, 5.0_mV, 2)     // extra on core 2
        .droopStorm(Seconds{0.0}, Seconds{0.0}, 6.0, 1.5)
        .cpmStuckAt(Seconds{0.0}, Seconds{0.0}, 5)                    // chip-wide
        .cpmStuckAt(Seconds{0.0}, Seconds{0.0}, 9, 1);                // later spec wins
    FaultInjector injector(plan, 8);
    injector.advance(Seconds{0.1});

    const ActiveFaultSet &active = injector.active();
    EXPECT_TRUE(active.any);
    // Biases add.
    EXPECT_NEAR(active.cpm[0].biasVolts, 10.0_mV, 1e-12);
    EXPECT_NEAR(active.cpm[2].biasVolts, 15.0_mV, 1e-12);
    EXPECT_NEAR(active.droopRateScale, 6.0, 1e-12);
    EXPECT_NEAR(active.droopDepthScale, 1.5, 1e-12);
    // Stuck-at: the later per-core spec overrides the chip-wide one
    // on its core; other cores keep the chip-wide position.
    EXPECT_EQ(active.cpm[1].stuckPosition, 9);
    EXPECT_EQ(active.cpm[0].stuckPosition, 5);
}

TEST(FaultInjector, SequentialSameTargetWindowsAreLegal)
{
    FaultPlan plan;
    plan.firmwareStall(Seconds{0.1}, Seconds{0.1})
        .firmwareStall(Seconds{0.2}, Seconds{0.1}); // abuts, no overlap
    FaultInjector injector(plan, 8);
    injector.advance(Seconds{0.15});
    EXPECT_TRUE(injector.active().firmwareStall);
    injector.advance(Seconds{0.1}); // t = 0.25, inside the second window
    EXPECT_TRUE(injector.active().firmwareStall);
    injector.advance(Seconds{0.1}); // t = 0.35, past both
    EXPECT_FALSE(injector.active().any);
}

TEST(FaultInjector, RejectsBadPlansAndSteps)
{
    FaultPlan bad;
    bad.cpmDropout(Seconds{0.0}, Seconds{0.0}, 12); // core out of range for 8 cores
    EXPECT_THROW(FaultInjector(bad, 8), ConfigError);

    FaultInjector injector(FaultPlan(), 8);
    EXPECT_THROW(injector.advance(Seconds{0.0}), InternalError);
}

TEST(CpmBankFaults, FaultShapesControlVoltage)
{
    power::VfCurve curve;
    sensors::CpmBank bank(&curve, sensors::CpmParams(), 0, 42);
    const Hertz f = Hertz{4.2e9};
    const Volts v = Volts{1.15};

    const Volts healthy = bank.controlVoltage(v, f);
    EXPECT_NEAR(healthy, v, 20.0_mV); // small calibration residual only

    sensors::CpmFault optimistic;
    optimistic.biasVolts = 25.0_mV;
    bank.setFault(optimistic);
    EXPECT_FALSE(bank.blind());
    EXPECT_NEAR(bank.controlVoltage(v, f), healthy + 25.0_mV, 1e-12);

    sensors::CpmFault dropout;
    dropout.dropout = true;
    bank.setFault(dropout);
    EXPECT_TRUE(bank.blind());
    // Dark bank pegs high: reads as far more margin than reality.
    EXPECT_GT(bank.controlVoltage(v, f), healthy + 50.0_mV);

    bank.clearFault();
    EXPECT_FALSE(bank.fault().any());
    EXPECT_NEAR(bank.controlVoltage(v, f), healthy, 1e-12);
}

TEST(VrmFaults, StuckDacIgnoresWritesAndOffsetIsInvisible)
{
    pdn::Vrm vrm(1);
    vrm.setSetpoint(0, Volts{1.20});
    vrm.injectDacStuck(0, true);
    vrm.setSetpoint(0, Volts{1.10});
    // Write dropped: firmware reads back the stuck value.
    EXPECT_NEAR(vrm.setpoint(0), Volts{1.20}, Volts{1e-12});

    vrm.injectDacStuck(0, false);
    vrm.setSetpoint(0, Volts{1.10});
    EXPECT_NEAR(vrm.setpoint(0), Volts{1.10}, Volts{1e-12});

    // A DAC offset changes the delivered voltage but not the readback.
    vrm.injectDacOffset(0, -8.0_mV);
    EXPECT_NEAR(vrm.setpoint(0), Volts{1.10}, Volts{1e-12});
    EXPECT_NEAR(vrm.outputAt(0, Amps{0.0}), Volts{1.10} - 8.0_mV, 1e-12);

    vrm.clearFaults();
    EXPECT_NEAR(vrm.outputAt(0, Amps{0.0}), Volts{1.10}, Volts{1e-12});
}

/** Rig: one chip with an attached injector, stepped for a duration. */
struct FaultRun
{
    explicit FaultRun(const FaultPlan &plan, GuardbandMode mode,
                      uint64_t seed = 0, Volts maxUndervolt = Volts{0.0})
        : vrm(1)
    {
        ChipConfig config;
        if (seed != 0)
            config.seed = seed;
        if (maxUndervolt > Volts{0.0})
            config.undervolt.maxUndervolt = maxUndervolt;
        chip = std::make_unique<Chip>(config, &vrm);
        chip->setMode(mode);
        for (size_t i = 0; i < chip->coreCount(); ++i)
            chip->setLoad(i, CoreLoad::running(1.0, 13.0_mV, 24.0_mV));
        chip->settle(Seconds{0.5});
        injector = std::make_unique<FaultInjector>(plan,
                                                   chip->coreCount());
        chip->attachFaultInjector(injector.get());
    }

    void
    run(Seconds duration, Seconds dt = Seconds{1e-3})
    {
        const int steps = int(duration / dt);
        for (int i = 0; i < steps; ++i)
            chip->step(dt);
    }

    pdn::Vrm vrm;
    std::unique_ptr<Chip> chip;
    std::unique_ptr<FaultInjector> injector;
};

/**
 * Safety property: StaticGuardband absorbs every *control-path* fault.
 * A lying CPM, a stalled firmware tick, or a stuck DAC cannot hurt the
 * static mode because its setpoint never depends on the sensors. (Plans
 * that physically attack the rail — deep droop storms, large DAC
 * under-delivery — can breach ANY guardband and are out of scope; see
 * docs/RELIABILITY.md.)
 */
class StaticImmunityTest
    : public ::testing::TestWithParam<int>
{
  protected:
    static FaultPlan
    planFor(int variant)
    {
        FaultPlan plan;
        switch (variant) {
          case 0:
            plan.cpmOptimisticBias(Seconds{0.05}, Seconds{0.0}, 40.0_mV);
            break;
          case 1:
            plan.cpmDropout(Seconds{0.05}, Seconds{0.0});
            break;
          case 2:
            plan.cpmStuckAt(Seconds{0.05}, Seconds{0.0}, 11);
            break;
          case 3:
            plan.firmwareStall(Seconds{0.05}, Seconds{0.0});
            break;
          case 4:
            plan.vrmDacStuck(Seconds{0.05});
            break;
          case 5:
            // Small under-delivery: inside the static guardband's
            // remaining slack plus the emergency tolerance band (the
            // provisioned envelope is nearly exhausted at the
            // full-load calibration corner — see docs/RELIABILITY.md).
            plan.vrmDacOffset(Seconds{0.05}, Seconds{0.0}, -5.0_mV);
            break;
          case 6:
            // Rate-only storm: depths stay within the characterized
            // envelope the guardband was provisioned for.
            plan.droopStorm(Seconds{0.05}, Seconds{0.0}, 8.0);
            break;
          default:
            // Everything at once.
            plan.cpmOptimisticBias(Seconds{0.05}, Seconds{0.0}, 40.0_mV)
                .cpmDropout(Seconds{0.1}, Seconds{0.0}, 3)
                .firmwareStall(Seconds{0.05}, Seconds{0.0})
                .vrmDacStuck(Seconds{0.2})
                .droopStorm(Seconds{0.3}, Seconds{0.0}, 4.0);
            break;
        }
        return plan;
    }
};

TEST_P(StaticImmunityTest, StaticModeNeverSeesEmergency)
{
    FaultRun rig(planFor(GetParam()), GuardbandMode::StaticGuardband);
    rig.run(Seconds{1.0});
    EXPECT_EQ(rig.chip->totalEmergencies(), 0);
    EXPECT_FALSE(rig.chip->safetyDemoted());
    EXPECT_GT(rig.chip->lastWorstMargin(), Volts{0.0});
}

INSTANTIATE_TEST_SUITE_P(ControlPathFaultPlans, StaticImmunityTest,
                         ::testing::Range(0, 8));

/** Same seed + same plan must replay bit-identically. */
TEST(FaultDeterminism, SameSeedSamePlanBitIdenticalTelemetry)
{
    FaultPlan plan;
    plan.cpmOptimisticBias(Seconds{0.1}, Seconds{0.0}, 30.0_mV)
        .droopStorm(Seconds{0.2}, Seconds{0.3}, 4.0, 1.1)
        .firmwareStall(Seconds{0.5}, Seconds{0.1});

    auto telemetryOf = [&](uint64_t seed) {
        FaultRun rig(plan, GuardbandMode::AdaptiveUndervolt, seed,
                     Volts{0.12});
        rig.run(Seconds{1.2});
        return rig.chip->telemetry().windows();
    };

    const auto a = telemetryOf(12345);
    const auto b = telemetryOf(12345);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (size_t w = 0; w < a.size(); ++w) {
        EXPECT_EQ(a[w].sampleCpm, b[w].sampleCpm) << "window " << w;
        EXPECT_EQ(a[w].stickyCpm, b[w].stickyCpm) << "window " << w;
        EXPECT_EQ(a[w].meanCoreVoltage, b[w].meanCoreVoltage);
        EXPECT_EQ(a[w].meanCoreFrequency, b[w].meanCoreFrequency);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(a[w].meanChipPower, b[w].meanChipPower);
        EXPECT_EQ(a[w].meanSetpoint, b[w].meanSetpoint);
        EXPECT_EQ(a[w].emergencyCount, b[w].emergencyCount);
        EXPECT_EQ(a[w].demotionCount, b[w].demotionCount);
        EXPECT_EQ(a[w].worstMargin, b[w].worstMargin);
    }

    // Different seed: the noise draws differ, so the noise-facing
    // telemetry (worst margin, CPM readings) must differ somewhere
    // (sanity that we are not comparing constants). The *analog* means
    // can legitimately coincide here because the biased controller pins
    // both the setpoint (at the undervolt ceiling) and the DPLLs (at
    // target).
    const auto c = telemetryOf(99999);
    ASSERT_EQ(a.size(), c.size());
    bool anyDifference = false;
    for (size_t w = 0; w < a.size() && !anyDifference; ++w) {
        anyDifference = a[w].worstMargin != c[w].worstMargin ||
                        a[w].sampleCpm != c[w].sampleCpm ||
                        a[w].stickyCpm != c[w].stickyCpm;
    }
    EXPECT_TRUE(anyDifference);
}

TEST(FaultChipIntegration, FirmwareStallFreezesDecisions)
{
    FaultPlan plan;
    plan.firmwareStall(Seconds{0.1}, Seconds{0.4});
    FaultRun rig(plan, GuardbandMode::AdaptiveUndervolt);
    rig.run(Seconds{0.6});
    // ~0.4 s of stall at a 32 ms cadence: about 12 missed ticks.
    EXPECT_GE(rig.chip->missedFirmwareTicks(), 10);
    EXPECT_LE(rig.chip->missedFirmwareTicks(), 14);
}

TEST(FaultChipIntegration, DetachClearsInjectedState)
{
    FaultPlan plan;
    plan.cpmDropout(Seconds{0.0}, Seconds{0.0}).vrmDacStuck(Seconds{0.0});
    FaultRun rig(plan, GuardbandMode::AdaptiveUndervolt);
    rig.run(Seconds{0.2});

    rig.chip->attachFaultInjector(nullptr);
    EXPECT_EQ(rig.chip->faultInjector(), nullptr);
    EXPECT_FALSE(rig.vrm.dacStuck(0));
    // Loop recovers on its own once the sensors tell the truth again.
    rig.chip->settle(Seconds{1.0});
    EXPECT_EQ(rig.chip->lastStepEmergencies(), 0);
}

TEST(FaultChipIntegration, AttachRejectsCoreCountMismatch)
{
    pdn::Vrm vrm(1);
    Chip chip(ChipConfig(), &vrm);
    FaultInjector injector(FaultPlan(), chip.coreCount() + 1);
    EXPECT_THROW(chip.attachFaultInjector(&injector), ConfigError);
}

} // namespace
} // namespace agsim::fault
