/**
 * @file
 * FleetService tests: the continuous service must be a pure function
 * of (config, seeds) — bit-identical digests for threads=1 vs
 * threads=N work-stealing execution and for telemetry on vs off — and
 * its online control must actually control: admission sheds under
 * overload, placements track rate shifts, failed servers drain and
 * migrate their backlogs, and the scripted flash crowd drives an SLO
 * alert through a full fire/resolve cycle. Placement belongs to the
 * RecoveryManager: the ladder's rung-3 shed must reach the service,
 * and the chips must run exactly the threads the manager placed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chip/chip_state.h"
#include "common/error.h"
#include "fault/fault_plan.h"
#include "obs/observability.h"
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

/** Every chip's state, labelled by server and socket, server-major. */
using ChipStates = std::vector<std::pair<std::string, chip::ChipState>>;

ChipStates
chipStates(FleetService &service)
{
    ChipStates states;
    for (size_t i = 0; i < service.serverCount(); ++i) {
        Server &server = service.server(i);
        for (size_t s = 0; s < server.socketCount(); ++s) {
            states.emplace_back("server " + std::to_string(i) +
                                    " socket " + std::to_string(s),
                                server.chip(s).state());
        }
    }
    return states;
}

/**
 * Whole-state comparison of two fleets' chips. stateDigest() hashes a
 * few observables per chip; this also covers the di/dt stream, the
 * safety monitor, the telemetry window in progress and the DPLL caps,
 * and names the first chip that differs.
 */
void
expectEqualChipStates(const ChipStates &a, const ChipStates &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        if (!(a[i].second == b[i].second)) {
            ADD_FAILURE() << "chip states first differ at " << a[i].first;
            return;
        }
    }
}

TEST(FleetService, ExactModeBitIdenticalAcrossThreadCounts)
{
    uint64_t serialDigest = 0;
    uint64_t stolenDigest = 0;
    ChipStates serialStates;
    ChipStates stolenStates;
    {
        FleetServiceConfig config = baseConfig();
        config.stepper.threads = 1;
        FleetService service(config);
        service.start();
        service.runFor(Seconds{0.3});
        serialDigest = service.stateDigest();
        serialStates = chipStates(service);
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
        stolenStates = chipStates(service);
    }
    EXPECT_EQ(serialDigest, stolenDigest);
    expectEqualChipStates(serialStates, stolenStates);
}

/**
 * The determinism contract, pinned: stateDigest() after 0.3 s of
 * baseConfig() under each arrival shape, exact and phase-sampled. A
 * change to the model that moves any value here changes simulated
 * results; re-pinning a value requires listing its old and new values
 * in CHANGES.md.
 */
TEST(FleetService, PinnedDigestsPerArrivalShape)
{
    struct Pin
    {
        workload::ArrivalKind kind;
        uint64_t exact;
        uint64_t sampled;
    };
    const Pin pins[] = {
        {workload::ArrivalKind::Steady, 2567872669012474511ull,
         11889132569883756619ull},
        {workload::ArrivalKind::Diurnal, 11159727264952013326ull,
         2018651154935110534ull},
        {workload::ArrivalKind::Mmpp, 16493186083483869594ull,
         285915375877750142ull},
        {workload::ArrivalKind::FlashCrowd, 8444355354971873842ull,
         5259592427991211864ull},
    };
    for (const Pin &pin : pins) {
        for (const bool sampling : {false, true}) {
            FleetServiceConfig config = baseConfig();
            config.arrivals.kind = pin.kind;
            // The whole flash crowd (rise, hold, decay) inside the run;
            // with the 5 s default start a flash run equals steady.
            config.arrivals.flashStart = Seconds{0.05};
            config.arrivals.flashRise = Seconds{0.1};
            config.arrivals.flashHold = Seconds{0.1};
            config.arrivals.flashDecay = Seconds{0.05};
            config.arrivals.flashMultiplier = 3.0;
            config.stepper.sampling = sampling;
            FleetService service(config);
            service.start();
            service.runFor(Seconds{0.3});
            EXPECT_EQ(service.stateDigest(),
                      sampling ? pin.sampled : pin.exact)
                << workload::arrivalKindName(pin.kind)
                << (sampling ? " sampled" : " exact");
        }
    }
}

TEST(FleetService, DigestUnaffectedByTelemetry)
{
    uint64_t darkDigest = 0;
    uint64_t litDigest = 0;
    ChipStates darkStates;
    ChipStates litStates;
    {
        FleetService service(baseConfig());
        service.start();
        service.runFor(Seconds{0.2});
        darkDigest = service.stateDigest();
        darkStates = chipStates(service);
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
        litStates = chipStates(service);
        ASSERT_NE(hub.series("service.throughput"), nullptr);
        EXPECT_FALSE(hub.series("service.throughput")->empty());
    }
    EXPECT_EQ(darkDigest, litDigest);
    expectEqualChipStates(darkStates, litStates);
}

TEST(FleetService, SustainsSteadyLoad)
{
    FleetService service(baseConfig());
    EXPECT_EQ(service.latencyQuantile(0.99), Seconds{0.0}); // none yet
    service.start();
    service.runFor(Seconds{0.5});
    EXPECT_GT(service.stats().arrived, 0u);
    // Provisioned at ~25% of capacity: virtually everything completes.
    EXPECT_GE(service.sustainedFraction(), 0.9);
    EXPECT_EQ(service.stats().shed, 0u);
    const Seconds p50 = service.latencyQuantile(0.5);
    EXPECT_GT(p50, Seconds{0.0});
    EXPECT_LE(p50, service.latencyQuantile(0.99));
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
    const size_t placedAtStart = service.manager().placedThreads();
    size_t placedPeak = placedAtStart;
    for (int k = 0; k < 40; ++k) {
        service.tick();
        placedPeak =
            std::max(placedPeak, service.manager().placedThreads());
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

TEST(FleetService, LadderRungThreeShedsTheServiceWorkload)
{
    FleetServiceConfig config = baseConfig();
    config.serverCount = 8;
    const recovery::RecoveryPolicy &policy = config.recovery;
    FleetService service(config);
    // One crash per server on shedFailureThreshold servers, all inside
    // one stormWindow.
    const int crashes = policy.shedFailureThreshold;
    for (int i = 0; i < crashes; ++i) {
        fault::FaultPlan plan;
        plan.serverCrash(Seconds{0.1 + 0.01 * i}, Seconds{0.3});
        service.setFaultPlan(size_t(i), plan);
    }
    obs::Counter &migrations =
        obs::registry().counter("recovery.migrations_total");
    const int64_t migrations0 = migrations.value();
    service.start();

    recovery::RecoveryManager &manager = service.manager();
    for (int k = 0; k < 40 && manager.degradationRung() < 3; ++k)
        service.tick();
    ASSERT_EQ(manager.degradationRung(), 3);

    // The manager reports what it dropped from the service's request.
    const size_t shed = size_t(
        obs::registry().gauge("recovery.shed_threads").value());
    const size_t requested = manager.placedThreads() + shed;
    ASSERT_GT(requested, 4u);
    EXPECT_EQ(shed, size_t(double(requested) * policy.shedFraction));
    EXPECT_NEAR(double(manager.placedThreads()) / double(requested),
                1.0 - policy.shedFraction, 0.1);
    EXPECT_GT(migrations.value() - migrations0, 0);
}

/** Cores running a thread on the servers the manager may place on. */
size_t
runningServableCores(FleetService &service)
{
    size_t running = 0;
    for (size_t i = 0; i < service.serverCount(); ++i) {
        if (!service.manager().servable(i))
            continue;
        Server &server = service.server(i);
        for (size_t s = 0; s < server.socketCount(); ++s) {
            const chip::Chip &c = server.chip(s);
            for (size_t core = 0; core < c.coreCount(); ++core)
                running += c.load(core).active ? 1 : 0;
        }
    }
    return running;
}

TEST(FleetService, RecoveredServersRunOnlyPlacedThreads)
{
    // ~5% of capacity with a diurnal swing: few sockets carry threads
    // and placements keep moving, so a server that returns with cold,
    // checkpointed, or pre-outage loads holds threads the manager no
    // longer counts unless its every socket is rewritten.
    FleetServiceConfig config = baseConfig();
    config.serverCount = 8;
    config.arrivals.kind = workload::ArrivalKind::Diurnal;
    config.arrivals.baseRatePerSec = 3200.0;
    config.arrivals.diurnalPeriod = Seconds{0.5};
    config.arrivals.diurnalAmplitude = 0.6;
    FleetService service(config);
    fault::FaultPlan crashes;
    crashes.serverCrash(Seconds{0.05}, Seconds{0.1}); // cold restart
    crashes.serverCrash(Seconds{0.75}, Seconds{0.2}); // restore
    fault::FaultPlan longHang; // power-cycled by a probe, restored
    longHang.serverHang(Seconds{1.2}, Seconds{0.4});
    service.setFaultPlan(1, crashes);
    service.setFaultPlan(5, longHang);
    service.start();

    recovery::RecoveryManager &manager = service.manager();
    auto servableSet = [&] {
        std::vector<bool> set;
        for (size_t i = 0; i < service.serverCount(); ++i)
            set.push_back(manager.servable(i));
        return set;
    };
    std::vector<bool> previous = servableSet();
    int lastEdge = -100;
    int checked = 0;
    for (int k = 0; k < 200; ++k) {
        service.tick();
        const std::vector<bool> now = servableSet();
        if (now != previous)
            lastEdge = k;
        previous = now;
        // A server that froze is unservable at once but keeps its
        // threads until the watchdog notices (up to two quanta).
        if (k - lastEdge <= 2)
            continue;
        ++checked;
        EXPECT_EQ(runningServableCores(service), manager.placedThreads())
            << "quantum " << k;
    }
    EXPECT_EQ(manager.failures(), 3);
    EXPECT_EQ(manager.recoveries(), 3);
    EXPECT_GE(checked, 180);
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
