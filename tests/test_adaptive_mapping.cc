/**
 * @file
 * Adaptive-mapping scheduler tests: the Fig. 18 decision flow.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "core/adaptive_mapping.h"

namespace agsim::core {
namespace {

/** Scheduler with a trained predictor and latency-sensitive QoS model. */
AdaptiveMappingScheduler
trainedScheduler()
{
    AdaptiveMappingScheduler scheduler;
    // Frequency predictor: 4.6 GHz intercept, -2.5 MHz/kMIPS.
    for (double mips = 5000; mips <= 80000; mips += 5000)
        scheduler.observeFrequency(mips, Hertz{4.6e9 - 2500.0 * mips});
    // QoS model: p90 improves 5 ms per 10 MHz; with the 8% tail guard
    // a 0.5 s target lands near 4.53 GHz, admitting only the lightest
    // co-runner.
    for (double f = 4.40e9; f <= 4.60e9; f += 0.02e9)
        scheduler.observeQos(Hertz{f}, 0.520 - (f - 4.40e9) * 5e-10);
    return scheduler;
}

std::vector<CorunnerOption>
candidates()
{
    // The paper's light/medium/heavy co-runners (Sec. 5.2.2).
    return {{"light", 13000.0, 100.0},
            {"medium", 28000.0, 300.0},
            {"heavy", 70000.0, 200.0}};
}

TEST(AdaptiveMapping, KeepsMappingWhenQosHealthy)
{
    const auto scheduler = trainedScheduler();
    const auto decision = scheduler.decide(0.10, 0.5, 4500.0, 2,
                                           candidates());
    EXPECT_FALSE(decision.swap);
}

TEST(AdaptiveMapping, SwapsHeavyForFittingCorunner)
{
    const auto scheduler = trainedScheduler();
    // Violating on the heavy co-runner (index 2).
    const auto decision = scheduler.decide(0.40, 0.5, 4500.0, 2,
                                           candidates());
    EXPECT_TRUE(decision.swap);
    EXPECT_NE(decision.corunnerIndex, 2u);
    EXPECT_GT(decision.requiredFrequency, Hertz{0.0});
    EXPECT_GT(decision.corunnerMipsBudget, 0.0);
    // Picks the heaviest candidate that fits the budget.
    const auto c = candidates();
    EXPECT_LE(c[decision.corunnerIndex].totalMips,
              decision.corunnerMipsBudget);
}

TEST(AdaptiveMapping, TightTargetFallsBackToLightest)
{
    auto scheduler = trainedScheduler();
    // Target far below anything achievable: budget collapses to zero.
    const auto decision = scheduler.decide(0.40, 0.300, 4500.0, 2,
                                           candidates());
    EXPECT_TRUE(decision.swap);
    EXPECT_EQ(decision.corunnerIndex, 0u); // light has lowest MIPS
    EXPECT_DOUBLE_EQ(decision.corunnerMipsBudget, 0.0);
}

TEST(AdaptiveMapping, GenerousTargetKeepsHeavy)
{
    const auto scheduler = trainedScheduler();
    // Violation triggered but the target is loose: heavy fits; since
    // heavy is already scheduled, no swap.
    const auto decision = scheduler.decide(0.40, 0.600, 4500.0, 2,
                                           candidates());
    EXPECT_FALSE(decision.swap);
    EXPECT_EQ(decision.corunnerIndex, 2u);
}

chip::ChipHealthView
demotedHostView()
{
    chip::ChipHealthView view;
    view.state = chip::SafetyState::Demoted;
    view.commandedMode = chip::GuardbandMode::AdaptiveUndervolt;
    view.effectiveMode = chip::GuardbandMode::StaticGuardband;
    view.demotions = 1;
    return view;
}

TEST(AdaptiveMapping, DemotedHostDiscountsMipsBudget)
{
    const auto scheduler = trainedScheduler();
    const auto baseline = scheduler.decide(0.40, 0.5, 4500.0, 2,
                                           candidates());
    const auto view = demotedHostView();
    const auto demoted = scheduler.decide(0.40, 0.5, 4500.0, 2,
                                          candidates(), &view);
    const double discount =
        scheduler.params().demotedMipsDiscount;
    EXPECT_NEAR(demoted.corunnerMipsBudget,
                baseline.corunnerMipsBudget * (1.0 - discount), 1e-6);
    EXPECT_NE(demoted.reason.find("budget discounted: host demoted"),
              std::string::npos);
    EXPECT_EQ(baseline.reason.find("discounted"), std::string::npos);
}

TEST(AdaptiveMapping, HealthyOrStaticHostKeepsFullBudget)
{
    const auto scheduler = trainedScheduler();
    const auto baseline = scheduler.decide(0.40, 0.5, 4500.0, 2,
                                           candidates());

    chip::ChipHealthView healthy;
    healthy.state = chip::SafetyState::Monitoring;
    healthy.commandedMode = chip::GuardbandMode::AdaptiveUndervolt;
    healthy.effectiveMode = chip::GuardbandMode::AdaptiveUndervolt;
    const auto withHealthy = scheduler.decide(0.40, 0.5, 4500.0, 2,
                                              candidates(), &healthy);
    EXPECT_EQ(withHealthy.corunnerMipsBudget,
              baseline.corunnerMipsBudget);

    // A statically-commanded host never had adaptive headroom in the
    // first place, so demotion changes nothing for the predictor.
    auto staticHost = demotedHostView();
    staticHost.commandedMode = chip::GuardbandMode::StaticGuardband;
    const auto withStatic = scheduler.decide(0.40, 0.5, 4500.0, 2,
                                             candidates(), &staticHost);
    EXPECT_EQ(withStatic.corunnerMipsBudget,
              baseline.corunnerMipsBudget);
}

TEST(AdaptiveMapping, RejectsDiscountOutOfRange)
{
    AdaptiveMappingParams low;
    low.demotedMipsDiscount = -0.1;
    EXPECT_THROW(AdaptiveMappingScheduler{low}, ConfigError);
    AdaptiveMappingParams high;
    high.demotedMipsDiscount = 1.0;
    EXPECT_THROW(AdaptiveMappingScheduler{high}, ConfigError);
}

TEST(AdaptiveMapping, MemoryPathWhenNotFrequencySensitive)
{
    AdaptiveMappingScheduler scheduler;
    for (double mips = 5000; mips <= 80000; mips += 5000)
        scheduler.observeFrequency(mips, Hertz{4.6e9 - 2500.0 * mips});
    // QoS flat in frequency -> memory-contention branch.
    for (double f = 4.40e9; f <= 4.60e9; f += 0.02e9)
        scheduler.observeQos(Hertz{f}, 0.510);
    const auto decision = scheduler.decide(0.40, 0.5, 4500.0, 2,
                                           candidates());
    EXPECT_TRUE(decision.swap);
    // Lowest memory pressure is "light" (100.0).
    EXPECT_EQ(decision.corunnerIndex, 0u);
}

TEST(AdaptiveMapping, UntrainedModelsUseMemoryPath)
{
    AdaptiveMappingScheduler scheduler;
    const auto decision = scheduler.decide(0.40, 0.5, 4500.0, 1,
                                           candidates());
    EXPECT_TRUE(decision.swap);
    EXPECT_EQ(decision.corunnerIndex, 0u);
}

TEST(AdaptiveMapping, ThresholdIsConfigurable)
{
    AdaptiveMappingParams params;
    params.violationThreshold = 0.05;
    AdaptiveMappingScheduler scheduler(params);
    const auto decision = scheduler.decide(0.10, 0.5, 4500.0, 0,
                                           candidates());
    // 10% violation exceeds the 5% threshold -> acts.
    EXPECT_EQ(decision.swap || decision.corunnerIndex == 0, true);
    EXPECT_NE(decision.reason.find("co-runner"), std::string::npos);
}

TEST(AdaptiveMapping, Validation)
{
    const auto scheduler = trainedScheduler();
    EXPECT_THROW(scheduler.decide(0.4, 0.5, 4500.0, 0, {}), ConfigError);
    EXPECT_THROW(scheduler.decide(0.4, 0.5, 4500.0, 9, candidates()),
                 ConfigError);
    AdaptiveMappingParams bad;
    bad.violationThreshold = 1.5;
    EXPECT_THROW(AdaptiveMappingScheduler{bad}, ConfigError);
}

} // namespace
} // namespace agsim::core
