/**
 * @file
 * Live-telemetry acceptance tests over a managed fleet-recovery
 * scenario (the ISSUE's gates): the availability SLO burn-rate alert
 * fires aligned with a scripted server crash, the flight recorder
 * dump brackets the failure, the telemetry plane — disabled or fully
 * enabled — never perturbs simulation state (bit-identical chip
 * outcomes), and the fleet.* series are the same at any stepper
 * thread count.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "obs/observability.h"
#include "obs/telemetry/telemetry_hub.h"
#include "recovery/recovery_manager.h"
#include "system/fleet_stepper.h"
#include "system/server.h"

namespace agsim {
namespace {

constexpr Seconds kDt{1e-3};
constexpr size_t kServers = 3;
constexpr double kCrashAt = 0.3;

system::ServerConfig
serverConfig(size_t index)
{
    system::ServerConfig config;
    config.socketCount = 2;
    config.chipTemplate.mode = chip::GuardbandMode::AdaptiveUndervolt;
    config.chipTemplate.seed =
        0xFEEDull + 0x9E3779B97F4A7C15ull * (index + 1);
    return config;
}

/** Every chip observable that must stay bit-identical. */
std::vector<double>
chipOutcomes(const std::vector<std::unique_ptr<system::Server>> &servers)
{
    std::vector<double> out;
    for (const auto &server : servers) {
        for (size_t s = 0; s < server->socketCount(); ++s) {
            const chip::Chip &chip = server->chip(s);
            out.push_back(chip.simTime().value());
            out.push_back(chip.power().value());
            out.push_back(chip.setpoint().value());
            out.push_back(chip.lastWorstMargin().value());
            for (size_t c = 0; c < chip.coreCount(); ++c)
                out.push_back(chip.coreFrequency(c).value());
        }
    }
    return out;
}

obs::telemetry::SloRule
availabilityRule()
{
    obs::telemetry::SloRule rule;
    rule.name = "fleet.availability";
    rule.series = "recovery.online";
    rule.stat = obs::telemetry::BucketStat::Min;
    rule.threshold = double(kServers) - 0.5;
    rule.violationIsAbove = false;
    rule.budget = 0.05;
    rule.shortWindow = Seconds{0.05};
    rule.longWindow = Seconds{0.25};
    rule.burnRate = 2.0;
    return rule;
}

/**
 * One managed fleet run with a scripted crash at kCrashAt; the hub
 * (nullable) rides along exactly as in bench/ext_fleet_recovery.
 */
std::vector<double>
runStorm(obs::telemetry::TelemetryHub *hub)
{
    std::vector<std::unique_ptr<system::Server>> servers;
    for (size_t i = 0; i < kServers; ++i)
        servers.push_back(
            std::make_unique<system::Server>(serverConfig(i)));

    system::FleetStepper stepper{system::FleetStepperConfig{}};
    recovery::RecoveryManager manager(&stepper,
                                      recovery::RecoveryPolicy{});
    if (hub != nullptr) {
        stepper.setTelemetry(hub);
        manager.setTelemetry(hub);
    }

    std::vector<fault::FaultPlan> plans(kServers);
    plans[1].serverCrash(Seconds{kCrashAt}, Seconds{0.15});
    for (size_t i = 0; i < kServers; ++i)
        manager.addServer(*servers[i],
                          plans[i].empty() ? nullptr : &plans[i]);
    manager.setWorkload(4 * kServers,
                        chip::CoreLoad::running(0.9, Volts{0.013},
                                                Volts{0.024}));

    for (int64_t t = 0; t < 1000; ++t) {
        stepper.run(1, kDt);
        manager.tick(kDt);
    }
    EXPECT_EQ(manager.failures(), 1);
    return chipOutcomes(servers);
}

TEST(FleetTelemetry, AlertAndDumpAlignWithTheCrash)
{
    const std::string streamPath =
        ::testing::TempDir() + "fleet_telemetry_stream.jsonl";
    obs::telemetry::TelemetryConfig config;
    config.enabled = true;
    config.streamPath = streamPath;
    config.enableRecorder = true;
    config.recorder.dir = ::testing::TempDir();
    obs::telemetry::TelemetryHub hub(config);
    hub.slo().addRule(availabilityRule());

    runStorm(&hub);
    obs::setTracingEnabled(false);

    // The availability alert fires shortly after the 0.3 s crash
    // (watchdog heartbeat timeout + one burn-rate bucket) and has
    // resolved by the end of the run (server restored).
    ASSERT_EQ(hub.slo().alerts().size(), 1u);
    const obs::telemetry::SloAlertState &alert = hub.slo().alerts()[0];
    EXPECT_GE(alert.fireCount, 1u);
    EXPECT_GE(alert.firedAt.value(), kCrashAt);
    EXPECT_LE(alert.firedAt.value(), kCrashAt + 0.3);
    EXPECT_FALSE(alert.active);
    EXPECT_GT(alert.resolvedAt.value(), alert.firedAt.value());

    // At least one flight dump, and the first one brackets the
    // detection of the first (and only) server failure.
    const obs::telemetry::FlightRecorder *recorder = hub.recorder();
    ASSERT_NE(recorder, nullptr);
    const auto dumps = recorder->dumps();
    ASSERT_GE(dumps.size(), 1u);
    const obs::telemetry::FlightDump &first = dumps[0];
    EXPECT_EQ(first.reason.rfind("server_failure", 0), 0u);
    EXPECT_GE(first.triggerTime.value(), kCrashAt);
    EXPECT_LE(first.triggerTime.value(), kCrashAt + 0.2);
    EXPECT_LE(first.windowStart.value(), first.triggerTime.value());
    EXPECT_GE(first.windowEnd.value(), first.triggerTime.value());
    EXPECT_GT(first.events, 0u);

    // The stream carried sample lines plus the alert/dump records.
    EXPECT_GT(hub.streamLines(), 0u);

    // The fleet and recovery series actually accumulated samples, and
    // an undeclared name has no series.
    ASSERT_NE(hub.series("fleet.margin"), nullptr);
    EXPECT_FALSE(hub.series("fleet.margin")->empty());
    ASSERT_NE(hub.series("recovery.online"), nullptr);
    EXPECT_FALSE(hub.series("recovery.online")->empty());
    EXPECT_EQ(hub.series("fleet.no_such_series"), nullptr);

    for (const auto &dump : dumps)
        std::remove(dump.path.c_str());
    std::remove(streamPath.c_str());
}

TEST(FleetTelemetry, TelemetryNeverPerturbsTheSimulation)
{
    // Arm 1: no telemetry plane at all.
    const std::vector<double> bare = runStorm(nullptr);

    // Arm 2: hub attached but disabled — instrumented call sites must
    // be pure branches.
    obs::telemetry::TelemetryConfig disabledConfig;
    disabledConfig.enabled = false;
    obs::telemetry::TelemetryHub disabled(disabledConfig);
    const std::vector<double> withDisabled = runStorm(&disabled);

    // Arm 3: the full plane — series, sketches, SLOs, recorder (which
    // arms tracing), stream. Telemetry is pull-only; chip outcomes
    // must stay bit-identical.
    obs::telemetry::TelemetryConfig enabledConfig;
    enabledConfig.enabled = true;
    enabledConfig.enableRecorder = true;
    enabledConfig.recorder.dir = ::testing::TempDir();
    obs::telemetry::TelemetryHub enabled(enabledConfig);
    enabled.slo().addRule(availabilityRule());
    const std::vector<double> withEnabled = runStorm(&enabled);
    obs::setTracingEnabled(false);

    ASSERT_EQ(bare.size(), withDisabled.size());
    ASSERT_EQ(bare.size(), withEnabled.size());
    for (size_t i = 0; i < bare.size(); ++i) {
        EXPECT_EQ(bare[i], withDisabled[i]) << "disabled, index " << i;
        EXPECT_EQ(bare[i], withEnabled[i]) << "enabled, index " << i;
    }

    for (const auto &dump : enabled.recorder()->dumps())
        std::remove(dump.path.c_str());
}

/**
 * Runs 8 chips for 100 ticks, deactivates chip 3, runs 100 more, and
 * returns the hub that recorded the fleet.* series. Worker threads
 * only park samples; the control thread records them in slot order.
 */
std::unique_ptr<obs::telemetry::TelemetryHub>
recordFleetSeries(size_t threads)
{
    obs::telemetry::TelemetryConfig config;
    config.enabled = true;
    auto hub = std::make_unique<obs::telemetry::TelemetryHub>(config);

    std::vector<std::unique_ptr<system::Server>> servers;
    system::FleetStepperConfig stepperConfig;
    stepperConfig.shardSize = 2;
    stepperConfig.threads = threads;
    system::FleetStepper stepper(stepperConfig);
    stepper.setTelemetry(hub.get());
    for (size_t i = 0; i < 4; ++i) {
        servers.push_back(
            std::make_unique<system::Server>(serverConfig(i)));
        for (size_t s = 0; s < servers[i]->socketCount(); ++s) {
            chip::Chip &chip = servers[i]->chip(s);
            for (size_t c = 0; c < chip.coreCount(); ++c)
                chip.setLoad(c, chip::CoreLoad::running(
                                    0.5 + 0.05 * double(c + i),
                                    Volts{0.013}, Volts{0.024}));
        }
        stepper.addServer(*servers[i]);
    }
    stepper.run(100, kDt);
    stepper.setChipActive(3, false);
    stepper.run(100, kDt);
    return hub;
}

TEST(FleetTelemetry, FleetSeriesMatchAcrossThreadCounts)
{
    const auto serial = recordFleetSeries(1);
    const auto threaded = recordFleetSeries(3);
    for (const char *name : {"fleet.margin", "fleet.freq_ghz",
                             "fleet.power_w"}) {
        SCOPED_TRACE(name);
        const obs::telemetry::TimeSeriesBuffer *a = serial->series(name);
        const obs::telemetry::TimeSeriesBuffer *b = threaded->series(name);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        // Two samples per active chip per 100-tick run (one per tick
        // block): 8 x 2 before the deactivation, 7 x 2 after.
        EXPECT_EQ(a->recorded(), 30u);
        EXPECT_EQ(b->recorded(), 30u);
        ASSERT_EQ(a->firstBucket(), b->firstBucket());
        ASSERT_EQ(a->lastBucket(), b->lastBucket());
        for (int64_t k = a->firstBucket(); k <= a->lastBucket(); ++k) {
            const obs::telemetry::TimeBucket x = a->bucket(k);
            const obs::telemetry::TimeBucket y = b->bucket(k);
            EXPECT_EQ(x.count, y.count) << "bucket " << k;
            EXPECT_EQ(x.sum, y.sum) << "bucket " << k;
            EXPECT_EQ(x.min, y.min) << "bucket " << k;
            EXPECT_EQ(x.max, y.max) << "bucket " << k;
            EXPECT_EQ(x.last, y.last) << "bucket " << k;
        }
    }
}

} // namespace
} // namespace agsim
