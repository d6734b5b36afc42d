/**
 * @file
 * Closed-loop adaptive-mapping tests.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/mapping_loop.h"
#include "workload/library.h"

namespace agsim::core {
namespace {

std::vector<workload::BenchmarkProfile>
corunnerClasses()
{
    return {workload::throttledCoremark("light", InstrPerSec{13000e6 / 7.0}),
            workload::throttledCoremark("medium", InstrPerSec{28000e6 / 7.0}),
            workload::throttledCoremark("heavy", InstrPerSec{70000e6 / 7.0})};
}

TEST(MappingLoop, BlindHeavyMappingGetsCorrected)
{
    qos::WebSearchService service;
    AdaptiveMappingScheduler scheduler;
    MappingLoopConfig config;
    config.initialCorunner = 2; // blind: heavy
    config.quanta = 5;
    config.qosHorizon = Seconds{9000.0};

    const auto result = runMappingLoop(
        workload::byName("websearch"), corunnerClasses(), service,
        scheduler, config);

    ASSERT_EQ(result.history.size(), 5u);
    EXPECT_EQ(result.history.front().corunner, "heavy");
    // The blind mapping violates hard; the loop must swap off it.
    EXPECT_GT(result.initialViolationRate, 0.20);
    EXPECT_TRUE(result.history.front().swapped);
    EXPECT_NE(result.history.back().corunner, "heavy");
    // And the final violation rate improves substantially.
    EXPECT_LT(result.finalViolationRate,
              result.initialViolationRate * 0.7);
    // The mapping settles (no churn at the end).
    EXPECT_LT(result.convergedAt, result.history.size());
    EXPECT_FALSE(result.history.back().swapped);
}

TEST(MappingLoop, HealthyMappingLeftAlone)
{
    qos::WebSearchService service;
    AdaptiveMappingScheduler scheduler;
    MappingLoopConfig config;
    config.initialCorunner = 0; // light: QoS healthy
    config.quanta = 3;
    config.qosHorizon = Seconds{6000.0};

    const auto result = runMappingLoop(
        workload::byName("websearch"), corunnerClasses(), service,
        scheduler, config);
    for (const auto &quantum : result.history) {
        EXPECT_EQ(quantum.corunner, "light");
        EXPECT_FALSE(quantum.swapped);
    }
    EXPECT_EQ(result.convergedAt, 0u);
}

TEST(MappingLoop, HealthyPlatformReportsHealthyTelemetry)
{
    qos::WebSearchService service;
    AdaptiveMappingScheduler scheduler;
    MappingLoopConfig config;
    config.quanta = 2;
    config.qosHorizon = Seconds{3000.0};

    const auto result = runMappingLoop(
        workload::byName("websearch"), corunnerClasses(), service,
        scheduler, config);
    for (const auto &quantum : result.history) {
        EXPECT_TRUE(quantum.health.healthy());
        EXPECT_EQ(quantum.health.commandedMode,
                  chip::GuardbandMode::AdaptiveOverclock);
        EXPECT_EQ(quantum.health.demotions, 0);
    }
}

TEST(MappingLoop, ColocationFaultsSurfaceDemotedHealth)
{
    qos::WebSearchService service;
    AdaptiveMappingScheduler scheduler;
    MappingLoopConfig config;
    config.quanta = 2;
    config.qosHorizon = Seconds{3000.0};
    // Storm + CPM dropout demotes the host during every colocation
    // measurement; the view must ride along into the quantum records
    // (and from there into the scheduler's budget discount).
    config.colocationFaults.droopStorm(Seconds{0.05}, Seconds{0.0},
                                       30.0, 1.8)
        .cpmDropout(Seconds{0.05}, Seconds{0.0});

    const auto result = runMappingLoop(
        workload::byName("websearch"), corunnerClasses(), service,
        scheduler, config);
    for (const auto &quantum : result.history) {
        EXPECT_TRUE(quantum.health.demoted());
        EXPECT_EQ(quantum.health.commandedMode,
                  chip::GuardbandMode::AdaptiveOverclock);
        EXPECT_EQ(quantum.health.effectiveMode,
                  chip::GuardbandMode::StaticGuardband);
        EXPECT_GE(quantum.health.emergencies, 1);
    }
}

TEST(MappingLoop, Validation)
{
    qos::WebSearchService service;
    AdaptiveMappingScheduler scheduler;
    EXPECT_THROW(runMappingLoop(workload::byName("websearch"), {},
                                service, scheduler),
                 ConfigError);
    MappingLoopConfig config;
    config.initialCorunner = 9;
    EXPECT_THROW(runMappingLoop(workload::byName("websearch"),
                                corunnerClasses(), service, scheduler,
                                config),
                 ConfigError);
}

} // namespace
} // namespace agsim::core
