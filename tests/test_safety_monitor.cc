/**
 * @file
 * SafetyMonitor state-machine unit tests (budget, windowing, re-arm
 * hysteresis, backoff, latching) plus the chip-level acceptance
 * scenario: an optimistic CPM bias in AdaptiveUndervolt causes timing
 * emergencies, the monitor demotes within its budget, and no vmin
 * violations remain after demotion.
 */

#include <gtest/gtest.h>

#include "chip/chip.h"
#include "chip/safety_monitor.h"
#include "common/error.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "pdn/vrm.h"

namespace agsim::chip {
namespace {

using namespace agsim::units;
using Action = SafetyMonitor::Action;

constexpr Seconds kDt = Seconds{1e-3};

SafetyMonitorParams
fastParams()
{
    SafetyMonitorParams p;
    p.emergencyBudget = 4;
    p.windowLength = Seconds{0.1};
    p.rearmInterval = Seconds{0.05};
    p.rearmBackoff = 2.0;
    p.maxRearms = 2;
    return p;
}

/** Feed `steps` identical observations; returns the last action. */
Action
feed(const SafetyMonitor &monitor, SafetyMonitor::State &m, int steps,
     bool emergency, bool adaptive = true)
{
    Action last = Action::None;
    for (int i = 0; i < steps; ++i)
        last = monitor.observe(m, emergency, adaptive, kDt);
    return last;
}

TEST(SafetyMonitorUnit, NoEmergenciesNeverDemotes)
{
    SafetyMonitor monitor(fastParams());
    SafetyMonitor::State m;
    EXPECT_EQ(feed(monitor, m, 10000, false), Action::None);
    EXPECT_EQ(m.state, SafetyState::Monitoring);
    EXPECT_EQ(m.totalEmergencies, 0);
    EXPECT_EQ(m.demotions, 0);
}

TEST(SafetyMonitorUnit, DemotesWhenBudgetExceededInWindow)
{
    SafetyMonitor monitor(fastParams());
    SafetyMonitor::State m;
    EXPECT_EQ(monitor.observe(m, true, true, kDt), Action::None);
    EXPECT_EQ(monitor.observe(m, true, true, kDt), Action::None);
    EXPECT_EQ(monitor.observe(m, true, true, kDt), Action::None);
    // Fourth emergency hits the budget inside one 0.1 s window.
    EXPECT_EQ(monitor.observe(m, true, true, kDt), Action::Demote);
    EXPECT_EQ(m.state, SafetyState::Demoted);
    EXPECT_EQ(m.demotions, 1);
    EXPECT_GE(m.lastDemotionAt, Seconds{0.0});
}

TEST(SafetyMonitorUnit, SparseEmergenciesStayUnderBudget)
{
    SafetyMonitor monitor(fastParams());
    SafetyMonitor::State m;
    // One emergency per 0.1 s window: 3 under the budget of 4, forever.
    for (int i = 0; i < 200; ++i) {
        EXPECT_EQ(monitor.observe(m, true, true, kDt), Action::None);
        EXPECT_EQ(feed(monitor, m, 100, false), Action::None);
    }
    EXPECT_EQ(m.state, SafetyState::Monitoring);
    EXPECT_EQ(m.totalEmergencies, 200);
}

TEST(SafetyMonitorUnit, NonAdaptiveModeCountsButNeverDemotes)
{
    SafetyMonitor monitor(fastParams());
    SafetyMonitor::State m;
    EXPECT_EQ(feed(monitor, m, 50, true, /*adaptive=*/false), Action::None);
    EXPECT_EQ(m.state, SafetyState::Monitoring);
    EXPECT_EQ(m.totalEmergencies, 50);
}

TEST(SafetyMonitorUnit, DisabledMonitorCountsButNeverDemotes)
{
    SafetyMonitorParams params = fastParams();
    params.enabled = false;
    SafetyMonitor monitor(params);
    SafetyMonitor::State m;
    EXPECT_EQ(feed(monitor, m, 100, true), Action::None);
    EXPECT_EQ(m.state, SafetyState::Monitoring);
    EXPECT_EQ(m.totalEmergencies, 100);
}

TEST(SafetyMonitorUnit, RearmsAfterCleanInterval)
{
    SafetyMonitor monitor(fastParams());
    SafetyMonitor::State m;
    feed(monitor, m, 4, true);
    ASSERT_EQ(m.state, SafetyState::Demoted);

    // 0.05 s clean (50 steps) re-arms; the step crossing the threshold
    // returns Rearm.
    Action last = Action::None;
    int steps = 0;
    while (last != Action::Rearm && steps < 200) {
        last = monitor.observe(m, false, true, kDt);
        ++steps;
    }
    EXPECT_EQ(last, Action::Rearm);
    EXPECT_EQ(m.state, SafetyState::Monitoring);
    EXPECT_EQ(m.rearms, 1);
    // Clean time required: ~50 steps of 1 ms.
    EXPECT_NEAR(steps, 50, 2);
}

TEST(SafetyMonitorUnit, EmergencyWhileDemotedResetsCleanClock)
{
    SafetyMonitor monitor(fastParams());
    SafetyMonitor::State m;
    feed(monitor, m, 4, true);
    ASSERT_EQ(m.state, SafetyState::Demoted);

    // Get 80% of the way to re-arm, then slip once: the clean clock
    // must restart, so 40 more steps are NOT enough.
    EXPECT_EQ(feed(monitor, m, 40, false), Action::None);
    EXPECT_EQ(monitor.observe(m, true, true, kDt), Action::None);
    EXPECT_EQ(feed(monitor, m, 40, false), Action::None);
    EXPECT_EQ(m.state, SafetyState::Demoted);
    // A further full interval does re-arm (Rearm fires mid-feed).
    feed(monitor, m, 15, false);
    EXPECT_EQ(m.state, SafetyState::Monitoring);
    EXPECT_EQ(m.rearms, 1);
}

TEST(SafetyMonitorUnit, RearmBackoffDoublesCleanRequirement)
{
    SafetyMonitor monitor(fastParams());
    SafetyMonitor::State m;

    feed(monitor, m, 4, true);
    ASSERT_EQ(m.state, SafetyState::Demoted);
    int first = 0;
    while (m.state == SafetyState::Demoted && first < 500) {
        monitor.observe(m, false, true, kDt);
        ++first;
    }

    feed(monitor, m, 4, true);
    ASSERT_EQ(m.state, SafetyState::Demoted);
    int second = 0;
    while (m.state == SafetyState::Demoted && second < 500) {
        monitor.observe(m, false, true, kDt);
        ++second;
    }

    // Second demotion needs rearmBackoff (2x) as much clean time.
    EXPECT_NEAR(second, 2 * first, 4);
}

TEST(SafetyMonitorUnit, LatchesAfterMaxRearms)
{
    SafetyMonitorParams params = fastParams();
    params.maxRearms = 1;
    SafetyMonitor monitor(params);
    SafetyMonitor::State m;

    feed(monitor, m, 4, true);                 // demotion 1
    ASSERT_EQ(m.state, SafetyState::Demoted);
    feed(monitor, m, 200, false);              // re-arm 1 (the only one)
    ASSERT_EQ(m.state, SafetyState::Monitoring);

    feed(monitor, m, 4, true);                 // demotion 2: budget spent
    EXPECT_EQ(m.state, SafetyState::Latched);
    // Latched is permanent: no amount of clean time re-arms.
    EXPECT_EQ(feed(monitor, m, 5000, false), Action::None);
    EXPECT_EQ(m.state, SafetyState::Latched);
    EXPECT_EQ(m.rearms, 1);
    EXPECT_EQ(m.demotions, 2);
}

TEST(SafetyMonitorUnit, ZeroMaxRearmsLatchesImmediately)
{
    SafetyMonitorParams params = fastParams();
    params.maxRearms = 0;
    SafetyMonitor monitor(params);
    SafetyMonitor::State m;
    feed(monitor, m, 4, true);
    EXPECT_EQ(m.state, SafetyState::Latched);
}

TEST(SafetyMonitorUnit, NegativeMaxRearmsNeverLatches)
{
    SafetyMonitorParams params = fastParams();
    params.maxRearms = -1;
    SafetyMonitor monitor(params);
    SafetyMonitor::State m;
    for (int round = 0; round < 10; ++round) {
        feed(monitor, m, 4, true);
        ASSERT_EQ(m.state, SafetyState::Demoted) << round;
        feed(monitor, m, 100000, false);
        ASSERT_EQ(m.state, SafetyState::Monitoring) << round;
    }
    EXPECT_EQ(m.demotions, 10);
    EXPECT_EQ(m.rearms, 10);
}

TEST(SafetyMonitorUnit, ResetForgetsHistory)
{
    SafetyMonitor monitor(fastParams());
    SafetyMonitor::State m;
    feed(monitor, m, 4, true);
    ASSERT_EQ(m.state, SafetyState::Demoted);
    m = SafetyMonitor::State{};
    EXPECT_EQ(m.state, SafetyState::Monitoring);
    EXPECT_EQ(m.totalEmergencies, 0);
    EXPECT_EQ(m.demotions, 0);
    EXPECT_EQ(m.now, Seconds{0.0});
}

TEST(SafetyMonitorUnit, ParamValidation)
{
    SafetyMonitorParams params;
    params.emergencyBudget = 0;
    EXPECT_THROW(params.validate(), ConfigError);
    params = SafetyMonitorParams();
    params.windowLength = Seconds{0.0};
    EXPECT_THROW(params.validate(), ConfigError);
    params = SafetyMonitorParams();
    params.rearmInterval = -Seconds{1.0};
    EXPECT_THROW(params.validate(), ConfigError);
    params = SafetyMonitorParams();
    params.rearmBackoff = 0.5;
    EXPECT_THROW(params.validate(), ConfigError);
    params = SafetyMonitorParams();
    params.marginTolerance = -Volts{1e-3};
    EXPECT_THROW(params.validate(), ConfigError);
    params = SafetyMonitorParams();
    params.demotedRestartFraction = -0.1;
    EXPECT_THROW(params.validate(), ConfigError);
    params = SafetyMonitorParams();
    params.demotedRestartFraction = 1.5;
    EXPECT_THROW(params.validate(), ConfigError);
    params = SafetyMonitorParams();
    params.rearmBackoffCap = 0.5;
    EXPECT_THROW(params.validate(), ConfigError);
}

TEST(SafetyMonitorUnit, PartialRestartFractionKeepsCleanCredit)
{
    // demotedRestartFraction = 0.5: a slip while demoted forfeits only
    // half of the accumulated clean time instead of all of it.
    SafetyMonitorParams params = fastParams();
    params.demotedRestartFraction = 0.5;
    SafetyMonitor monitor(params);
    SafetyMonitor::State m;
    feed(monitor, m, 4, true);
    ASSERT_EQ(m.state, SafetyState::Demoted);

    // 40 ms clean, then one slip: 41 ms of credit halves to 20.5 ms,
    // leaving 29.5 ms owed against the 50 ms interval...
    feed(monitor, m, 40, false);
    EXPECT_EQ(monitor.observe(m, true, true, kDt), Action::None);
    EXPECT_NEAR(monitor.rearmBudget(m).value(), 0.0295, 1e-9);

    // ...so 28 more clean steps are not enough, but 2 beyond that are.
    EXPECT_EQ(feed(monitor, m, 28, false), Action::None);
    EXPECT_EQ(m.state, SafetyState::Demoted);
    feed(monitor, m, 2, false);
    EXPECT_EQ(m.state, SafetyState::Monitoring);
    EXPECT_EQ(m.rearms, 1);
}

TEST(SafetyMonitorUnit, ZeroRestartFractionForgivesSlipsEntirely)
{
    SafetyMonitorParams params = fastParams();
    params.demotedRestartFraction = 0.0;
    SafetyMonitor monitor(params);
    SafetyMonitor::State m;
    feed(monitor, m, 4, true);
    ASSERT_EQ(m.state, SafetyState::Demoted);

    // The slip costs nothing: the clean clock keeps running through it,
    // so 50 ms of wall time demoted re-arms regardless.
    feed(monitor, m, 40, false);
    EXPECT_EQ(monitor.observe(m, true, true, kDt), Action::None);
    feed(monitor, m, 10, false);
    EXPECT_EQ(m.state, SafetyState::Monitoring);
}

TEST(SafetyMonitorUnit, RearmBackoffCapBoundsCleanRequirement)
{
    SafetyMonitorParams params = fastParams();
    params.maxRearms = -1; // never latch: exercise repeated cycles
    params.rearmBackoffCap = 2.0;
    SafetyMonitor monitor(params);
    SafetyMonitor::State m;

    // Demotion n requires rearmInterval * min(2^(n-1), cap).
    const double expected[] = {0.05, 0.1, 0.1, 0.1};
    for (int n = 0; n < 4; ++n) {
        feed(monitor, m, 4, true);
        ASSERT_EQ(m.state, SafetyState::Demoted) << n;
        EXPECT_NEAR(monitor.requiredCleanInterval(m).value(), expected[n],
                    1e-12)
            << "demotion " << n + 1;
        feed(monitor, m, 100000, false);
        ASSERT_EQ(m.state, SafetyState::Monitoring) << n;
    }

    // Control: uncapped, the third demotion owes 4x the base interval.
    params.rearmBackoffCap = 0.0;
    SafetyMonitor uncapped(params);
    SafetyMonitor::State u;
    for (int n = 0; n < 2; ++n) {
        feed(uncapped, u, 4, true);
        feed(uncapped, u, 100000, false);
    }
    feed(uncapped, u, 4, true);
    EXPECT_NEAR(uncapped.requiredCleanInterval(u).value(), 0.2, 1e-12);
}

/**
 * Chip-level acceptance scenario (ISSUE acceptance criterion): an
 * optimistic CPM bias while undervolting drives the rail below the true
 * vmin; the monitor detects the emergencies, demotes to StaticGuardband
 * within its budget, and after demotion no violations remain.
 */
class ChipDemotionTest : public ::testing::Test
{
  protected:
    ChipDemotionTest() : vrm_(1)
    {
        ChipConfig config;
        // Let the optimistic bias express fully: the default 80 mV
        // undervolt ceiling would clip a 30 mV lie on top of the ~70 mV
        // legitimate reclaim.
        config.undervolt.maxUndervolt = Volts{0.12};
        config.safety.emergencyBudget = 8;
        config.safety.windowLength = Seconds{0.25};
        config.safety.rearmInterval = Seconds{1.0};
        chip_ = std::make_unique<Chip>(config, &vrm_);
        for (size_t i = 0; i < chip_->coreCount(); ++i) {
            chip_->setLoad(i, CoreLoad::running(1.0, 13.0_mV, 24.0_mV));
        }
    }

    pdn::Vrm vrm_;
    std::unique_ptr<Chip> chip_;
};

TEST_F(ChipDemotionTest, OptimisticBiasDemotesAndStopsViolations)
{
    chip_->setMode(GuardbandMode::AdaptiveUndervolt);
    chip_->settle(Seconds{1.5});
    ASSERT_EQ(chip_->mode(), GuardbandMode::AdaptiveUndervolt);
    EXPECT_EQ(chip_->totalEmergencies(), 0);

    // Every bank reports 40 mV more margin than exists, from t = 0.1 s.
    // The lie must clear the controller's walk-down dead band (~17 mV
    // of believed headroom) plus the monitor's 10 mV tolerance band
    // with real clearance, so the resulting emergencies are sustained.
    fault::FaultPlan plan;
    plan.cpmOptimisticBias(Seconds{0.1}, Seconds{0.0}, 40.0_mV);
    fault::FaultInjector injector(plan, chip_->coreCount());
    chip_->attachFaultInjector(&injector);

    const Seconds dt = Seconds{1e-3};
    Seconds demotedAt = Seconds{-1.0};
    int emergenciesBeforeDemotion = 0;
    for (int i = 0; i < 4000; ++i) {
        chip_->step(dt);
        if (demotedAt < Seconds{0.0} && chip_->safetyDemoted()) {
            demotedAt = injector.now();
            emergenciesBeforeDemotion =
                int(chip_->totalEmergencies());
        }
    }

    // The monitor fired...
    ASSERT_GT(demotedAt, Seconds{0.1});
    EXPECT_EQ(chip_->mode(), GuardbandMode::StaticGuardband);
    EXPECT_EQ(chip_->commandedMode(), GuardbandMode::AdaptiveUndervolt);
    EXPECT_GE(chip_->totalDemotions(), 1);
    // ...within its budget (8 emergencies, plus at most one window's
    // worth of slack while the last window rolls over)...
    EXPECT_LE(emergenciesBeforeDemotion,
              2 * chip_->config().safety.emergencyBudget);
    // ...and promptly: the firmware walks ~6.25 mV per 32 ms tick, so
    // a 30 mV lie takes well under a second to express and be caught.
    EXPECT_LT(demotedAt, Seconds{1.5});

    // After demotion (allowing the rail to recover), static guardband
    // absorbs the lying sensor: zero further vmin violations.
    chip_->settle(Seconds{0.5});
    const int64_t settled = chip_->totalEmergencies();
    for (int i = 0; i < 1000; ++i) {
        chip_->step(dt);
        EXPECT_EQ(chip_->lastStepEmergencies(), 0) << "step " << i;
    }
    EXPECT_EQ(chip_->totalEmergencies(), settled);
    EXPECT_GT(chip_->lastWorstMargin(), Volts{0.0});
}

TEST_F(ChipDemotionTest, UserModeCommandResetsWatchdog)
{
    chip_->setMode(GuardbandMode::AdaptiveUndervolt);
    chip_->settle(Seconds{1.0});

    fault::FaultPlan plan;
    plan.cpmOptimisticBias(Seconds{0.0}, Seconds{0.0}, 40.0_mV);
    fault::FaultInjector injector(plan, chip_->coreCount());
    chip_->attachFaultInjector(&injector);
    for (int i = 0; i < 3000; ++i)
        chip_->step(Seconds{1e-3});
    ASSERT_TRUE(chip_->safetyDemoted());

    // Clear the fault and recommand the mode: an explicit operator
    // decision overrides the watchdog's memory.
    chip_->attachFaultInjector(nullptr);
    chip_->setMode(GuardbandMode::AdaptiveUndervolt);
    EXPECT_FALSE(chip_->safetyDemoted());
    EXPECT_EQ(chip_->totalDemotions(), 0);
    chip_->settle(Seconds{1.0});
    EXPECT_EQ(chip_->mode(), GuardbandMode::AdaptiveUndervolt);
}

} // namespace
} // namespace agsim::chip
