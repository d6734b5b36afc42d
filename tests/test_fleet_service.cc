/**
 * @file
 * FleetService tests: the continuous service must be a pure function
 * of (config, seeds) — bit-identical digests for threads=1 vs
 * threads=N work-stealing execution and for telemetry on vs off — and
 * its online control must actually control: admission sheds under
 * overload, placements track rate shifts, failed servers drain and
 * migrate their backlogs, and the scripted flash crowd drives an SLO
 * alert through a full fire/resolve cycle.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/error.h"
#include "fault/fault_plan.h"
#include "obs/telemetry/telemetry_hub.h"
#include "system/fleet_service.h"

namespace agsim::system {
namespace {

using obs::telemetry::TelemetryConfig;
using obs::telemetry::TelemetryHub;

/** Small but heterogeneous service config the tests share. */
FleetServiceConfig
baseConfig()
{
    FleetServiceConfig config;
    config.serverCount = 4;
    config.seed = 0xD15EA5Eu;
    config.settleDuration = Seconds{0.02};
    config.tickDt = Seconds{1e-3};
    config.ticksPerQuantum = 10;
    config.arrivals.kind = workload::ArrivalKind::Steady;
    // 4 servers x 2 sockets x 8 cores x 500 q/s = 32k q/s capacity;
    // offer a comfortable fraction of it.
    config.arrivals.baseRatePerSec = 8000.0;
    return config;
}

TEST(FleetService, ExactModeBitIdenticalAcrossThreadCounts)
{
    uint64_t serialDigest = 0;
    uint64_t stolenDigest = 0;
    {
        FleetServiceConfig config = baseConfig();
        config.stepper.threads = 1;
        FleetService service(config);
        service.start();
        service.runFor(Seconds{0.3});
        serialDigest = service.stateDigest();
        EXPECT_GT(service.stats().completed, 0u);
    }
    {
        FleetServiceConfig config = baseConfig();
        config.stepper.threads = 4;
        config.stepper.shardSize = 2; // force several tasks per sweep
        FleetService service(config);
        service.start();
        service.runFor(Seconds{0.3});
        stolenDigest = service.stateDigest();
    }
    EXPECT_EQ(serialDigest, stolenDigest);
}

TEST(FleetService, DigestUnaffectedByTelemetry)
{
    uint64_t darkDigest = 0;
    uint64_t litDigest = 0;
    {
        FleetService service(baseConfig());
        service.start();
        service.runFor(Seconds{0.2});
        darkDigest = service.stateDigest();
    }
    {
        TelemetryConfig tc;
        tc.enabled = true;
        tc.sampleInterval = Seconds{0.01};
        TelemetryHub hub(tc);
        FleetService service(baseConfig());
        service.setTelemetry(&hub);
        service.installDefaultSlos();
        service.start();
        service.runFor(Seconds{0.2});
        litDigest = service.stateDigest();
        EXPECT_GT(hub.merged("service.throughput").buckets.size(), 0u);
    }
    EXPECT_EQ(darkDigest, litDigest);
}

TEST(FleetService, SustainsSteadyLoad)
{
    FleetService service(baseConfig());
    service.start();
    service.runFor(Seconds{0.5});
    EXPECT_GT(service.stats().arrived, 0u);
    // Provisioned at ~25% of capacity: virtually everything completes.
    EXPECT_GE(service.sustainedFraction(), 0.9);
    EXPECT_EQ(service.stats().shed, 0u);
}

TEST(FleetService, AdmissionControlShedsUnderOverload)
{
    FleetServiceConfig config = baseConfig();
    config.arrivals.baseRatePerSec = 200000.0; // ~6x capacity
    config.queue.maxDepth = 256;
    FleetService service(config);
    service.start();
    service.runFor(Seconds{0.3});
    EXPECT_GT(service.stats().shed, 0u);
    // The admission cap bounds every backlog.
    EXPECT_LE(service.queueDepth(),
              uint64_t(config.serverCount) * config.queue.maxDepth);
}

TEST(FleetService, PlacementTracksRateShift)
{
    FleetServiceConfig config = baseConfig();
    config.arrivals.kind = workload::ArrivalKind::FlashCrowd;
    config.arrivals.baseRatePerSec = 3000.0;
    config.arrivals.flashStart = Seconds{0.1};
    config.arrivals.flashRise = Seconds{0.1};
    config.arrivals.flashHold = Seconds{0.3};
    config.arrivals.flashDecay = Seconds{0.1};
    config.arrivals.flashMultiplier = 8.0;
    FleetService service(config);
    service.start();
    const size_t placedAtStart = service.placedThreads();
    size_t placedPeak = placedAtStart;
    for (int k = 0; k < 40; ++k) {
        service.tick();
        placedPeak = std::max(placedPeak, service.placedThreads());
    }
    EXPECT_GT(placedPeak, placedAtStart);
    EXPECT_GT(service.stats().placements, 1);
}

TEST(FleetService, DrainAndMigrateOnServerCrash)
{
    FleetServiceConfig config = baseConfig();
    // Offer above fleet capacity so a standing backlog exists on
    // every server when the crash lands.
    config.arrivals.baseRatePerSec = 40000.0;
    fault::FaultPlan plan;
    plan.serverCrash(Seconds{0.05}, Seconds{0.08});
    FleetService service(config);
    service.setFaultPlan(0, plan);
    service.start();
    service.runFor(Seconds{0.4});
    EXPECT_GE(service.manager().failures(), 1);
    // The crashed server's backlog moved to survivors instead of
    // stalling until recovery.
    EXPECT_GT(service.stats().migratedQueries, 0u);
    EXPECT_GE(service.sustainedFraction(), 0.5);
}

TEST(FleetService, FlashCrowdFiresAndResolvesSlo)
{
    TelemetryConfig tc;
    tc.enabled = true;
    tc.sampleInterval = Seconds{0.01};
    TelemetryHub hub(tc);

    FleetServiceConfig config = baseConfig();
    config.arrivals.kind = workload::ArrivalKind::FlashCrowd;
    config.arrivals.baseRatePerSec = 8000.0;
    config.arrivals.flashStart = Seconds{0.5};
    config.arrivals.flashRise = Seconds{0.2};
    config.arrivals.flashHold = Seconds{1.0};
    config.arrivals.flashDecay = Seconds{0.3};
    config.arrivals.flashMultiplier = 5.0; // peak 40k > 32k capacity
    config.queue.maxDepth = 2048;

    FleetService service(config);
    service.setTelemetry(&hub);
    service.installDefaultSlos(Seconds{0.050});
    service.start();
    service.runFor(Seconds{4.0});

    EXPECT_GE(hub.slo().totalFires(), 1u);
    EXPECT_EQ(hub.slo().activeCount(), 0u)
        << "alerts must resolve once the flash crowd decays";
    // The crowd was absorbed: most of the offered load still completed.
    EXPECT_GE(service.sustainedFraction(), 0.9);
}

TEST(FleetService, ValidationRejectsNonsense)
{
    FleetServiceConfig config;
    config.serverCount = 0;
    EXPECT_THROW(FleetService{config}, ConfigError);
    config = FleetServiceConfig();
    config.ticksPerQuantum = 0;
    EXPECT_THROW(FleetService{config}, ConfigError);
    config = FleetServiceConfig();
    config.targetUtilization = 0.0;
    EXPECT_THROW(FleetService{config}, ConfigError);
    config = FleetServiceConfig();
    config.rateEwmaAlpha = 2.0;
    EXPECT_THROW(FleetService{config}, ConfigError);
}

TEST(FleetService, LifecycleGuards)
{
    FleetService service(baseConfig());
    EXPECT_THROW(service.tick(), ConfigError);
    service.start();
    service.start(); // idempotent
    TelemetryConfig tc;
    TelemetryHub hub(tc);
    EXPECT_THROW(service.setTelemetry(&hub), ConfigError);
}

} // namespace
} // namespace agsim::system
