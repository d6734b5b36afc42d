/**
 * @file
 * RecoveryManager tests: watchdog detection, probe backoff and
 * abandonment, hang self-recovery, checkpoint restore, drain-and-
 * migrate, the degradation ladder, and the determinism guarantee —
 * with no failures scheduled, an enabled manager must be bit-identical
 * to a disabled one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/error.h"
#include "fault/fault_plan.h"
#include "obs/observability.h"
#include "recovery/recovery_manager.h"
#include "system/fleet_stepper.h"
#include "system/server.h"

namespace agsim::recovery {
namespace {

using namespace agsim::units;

constexpr Seconds kDt{1e-3};

system::ServerConfig
serverConfig(size_t index)
{
    system::ServerConfig config;
    config.socketCount = 2;
    config.chipTemplate.mode = chip::GuardbandMode::AdaptiveUndervolt;
    config.chipTemplate.seed =
        0x5E6E6Aull + 0x9E3779B97F4A7C15ull * index;
    return config;
}

/** A small fleet wired to a stepper and a manager. */
struct TestFleet
{
    explicit TestFleet(size_t serverCount, const RecoveryPolicy &policy,
                       const std::vector<fault::FaultPlan> &plans = {})
        : stepper(system::FleetStepperConfig{}), manager(&stepper, policy)
    {
        for (size_t i = 0; i < serverCount; ++i)
            servers.push_back(
                std::make_unique<system::Server>(serverConfig(i)));
        for (size_t i = 0; i < serverCount; ++i) {
            const fault::FaultPlan *plan =
                i < plans.size() && !plans[i].empty() ? &plans[i]
                                                      : nullptr;
            manager.addServer(*servers[i], plan);
        }
    }

    void
    run(Seconds duration)
    {
        const int64_t ticks = int64_t(duration.value() / kDt.value());
        for (int64_t t = 0; t < ticks; ++t) {
            stepper.step(kDt);
            manager.tick(kDt);
        }
    }

    /** Cores currently running a thread on one server (freq > 0). */
    size_t
    activeCores(size_t server) const
    {
        size_t n = 0;
        const system::Server &s = *servers[server];
        for (size_t socket = 0; socket < s.socketCount(); ++socket) {
            const chip::Chip &c = s.chip(socket);
            for (size_t core = 0; core < c.coreCount(); ++core) {
                if (c.coreFrequency(core) > Hertz{0.0} &&
                    !c.load(core).gated && c.load(core).active)
                    ++n;
            }
        }
        return n;
    }

    std::vector<std::unique_ptr<system::Server>> servers;
    system::FleetStepper stepper;
    RecoveryManager manager;
};

chip::CoreLoad
workerLoad()
{
    return chip::CoreLoad::running(0.9, 13.0_mV, 24.0_mV);
}

TEST(RecoveryPolicyValidation, RejectsNonsense)
{
    auto expectBad = [](auto mutate) {
        RecoveryPolicy policy;
        mutate(policy);
        EXPECT_THROW(policy.validate(), ConfigError);
    };
    expectBad([](RecoveryPolicy &p) { p.heartbeatTimeout = Seconds{0.0}; });
    expectBad([](RecoveryPolicy &p) { p.probeInitialDelay = Seconds{-1.0}; });
    expectBad([](RecoveryPolicy &p) { p.probeBackoff = 0.5; });
    expectBad([](RecoveryPolicy &p) { p.probeBudget = 0; });
    expectBad([](RecoveryPolicy &p) { p.checkpointInterval = Seconds{0.0}; });
    expectBad([](RecoveryPolicy &p) { p.restartLatency = Seconds{-0.1}; });
    expectBad([](RecoveryPolicy &p) { p.stormFailureThreshold = 0; });
    expectBad([](RecoveryPolicy &p) {
        p.cascadeFailureThreshold = p.stormFailureThreshold - 1;
    });
    expectBad([](RecoveryPolicy &p) {
        p.shedFailureThreshold = p.cascadeFailureThreshold - 1;
    });
    expectBad([](RecoveryPolicy &p) { p.stormWindow = Seconds{0.0}; });
    expectBad([](RecoveryPolicy &p) { p.shedFraction = 1.0; });
    RecoveryPolicy good;
    EXPECT_NO_THROW(good.validate());
}

TEST(RecoveryManager, CrashIsDetectedRestoredAndResumed)
{
    obs::resetAll();
    std::vector<fault::FaultPlan> plans(2);
    plans[0].serverCrash(Seconds{0.3}, Seconds{0.2});

    TestFleet fleet(2, RecoveryPolicy{}, plans);
    fleet.manager.setWorkload(12, workerLoad());
    fleet.run(Seconds{1.2});

    EXPECT_EQ(fleet.manager.failures(), 1);
    EXPECT_EQ(fleet.manager.recoveries(), 1);
    EXPECT_EQ(fleet.manager.state(0), ServerRecoveryState::Online);
    EXPECT_EQ(fleet.manager.onlineCount(), 2u);
    EXPECT_GT(fleet.manager.checkpoints(), 0);
    // The outage spans at least the fault window (the crash cause must
    // clear before a restart can take) plus detection and reboot time.
    EXPECT_GT(fleet.manager.meanTimeToRecover(), Seconds{0.2});
    EXPECT_LT(fleet.manager.meanTimeToRecover(), Seconds{0.6});
    // The restore path (not a cold start) brought the server back: the
    // default checkpoint cadence has a capture before the crash.
    EXPECT_EQ(
        obs::registry().counter("recovery.restores_total").value(), 1);
    // Lost work is real: the restored server resumed from a checkpoint
    // behind the fleet's clock.
    EXPECT_LT(fleet.servers[0]->chip(0).simTime(),
              fleet.servers[1]->chip(0).simTime());
}

TEST(RecoveryManager, HangSelfRecoversEvenWhenDisabled)
{
    RecoveryPolicy blind;
    blind.enabled = false;
    std::vector<fault::FaultPlan> plans(2);
    plans[0].serverHang(Seconds{0.2}, Seconds{0.1});

    TestFleet fleet(2, blind, plans);
    fleet.manager.setWorkload(8, workerLoad());

    fleet.run(Seconds{0.25});
    EXPECT_EQ(fleet.manager.onlineCount(), 1u); // frozen mid-hang

    fleet.run(Seconds{0.25});
    EXPECT_EQ(fleet.manager.onlineCount(), 2u);
    EXPECT_EQ(fleet.manager.selfRecoveries(), 1);
    EXPECT_EQ(fleet.manager.failures(), 0); // nobody was watching
}

TEST(RecoveryManager, BlindCrashStaysDownForever)
{
    RecoveryPolicy blind;
    blind.enabled = false;
    std::vector<fault::FaultPlan> plans(2);
    plans[0].serverCrash(Seconds{0.2}, Seconds{0.1});

    TestFleet fleet(2, blind, plans);
    fleet.manager.setWorkload(8, workerLoad());
    fleet.run(Seconds{1.0});

    EXPECT_EQ(fleet.manager.onlineCount(), 1u);
    EXPECT_EQ(fleet.manager.recoveries(), 0);
    const Seconds frozenAt = fleet.servers[0]->chip(0).simTime();
    fleet.run(Seconds{0.2});
    EXPECT_EQ(fleet.servers[0]->chip(0).simTime(), frozenAt);
}

TEST(RecoveryManager, ProbeBudgetExhaustionAbandonsTheServer)
{
    obs::resetAll();
    RecoveryPolicy policy;
    policy.probeBudget = 3;
    std::vector<fault::FaultPlan> plans(2);
    // Crash until end of run: every probe fails.
    plans[0].serverCrash(Seconds{0.1}, Seconds{0.0});

    TestFleet fleet(2, policy, plans);
    fleet.manager.setWorkload(8, workerLoad());
    fleet.run(Seconds{1.0});

    EXPECT_EQ(fleet.manager.state(0), ServerRecoveryState::Abandoned);
    EXPECT_EQ(fleet.manager.recoveries(), 0);
    EXPECT_EQ(
        obs::registry().counter("recovery.probe_failures_total").value(),
        3);
    // Backoff doubles the gap: 3 failed probes need detection + 0.02 +
    // 0.04 s before the third fires — well inside the run, but not
    // instantly.
    EXPECT_EQ(obs::registry().counter("recovery.probes_total").value(), 3);
}

TEST(RecoveryManager, HangPowerCycleLosesStateButRecoversFaster)
{
    // A long hang: waiting it out would take 0.5 s, but a probe
    // power-cycles the server at detection + probe delay.
    RecoveryPolicy policy;
    std::vector<fault::FaultPlan> plans(1);
    plans[0].serverHang(Seconds{0.2}, Seconds{0.5});

    TestFleet fleet(1, policy, plans);
    fleet.manager.setWorkload(4, workerLoad());
    fleet.run(Seconds{1.0});

    EXPECT_EQ(fleet.manager.failures(), 1);
    EXPECT_EQ(fleet.manager.recoveries(), 1);
    EXPECT_EQ(fleet.manager.selfRecoveries(), 0);
    // Power-cycle beat the hang window by a wide margin.
    EXPECT_LT(fleet.manager.meanTimeToRecover(), Seconds{0.2});
    EXPECT_EQ(fleet.manager.state(0), ServerRecoveryState::Online);
}

TEST(RecoveryManager, DrainMigratesWorkAndRecoveryRebalances)
{
    obs::resetAll();
    std::vector<fault::FaultPlan> plans(2);
    plans[0].serverCrash(Seconds{0.3}, Seconds{0.2});

    TestFleet fleet(2, RecoveryPolicy{}, plans);
    // 10 threads fit entirely on one 16-core server when needed.
    fleet.manager.setWorkload(10, workerLoad());

    fleet.run(Seconds{0.2});
    EXPECT_EQ(fleet.activeCores(0), 5u);
    EXPECT_EQ(fleet.activeCores(1), 5u);

    // Mid-outage (after detection): all 10 threads on the survivor.
    fleet.run(Seconds{0.2});
    EXPECT_EQ(fleet.manager.state(0), ServerRecoveryState::Failed);
    EXPECT_EQ(fleet.activeCores(1), 10u);
    EXPECT_EQ(fleet.manager.placedThreads(), 10u);

    // After recovery: rebalanced.
    fleet.run(Seconds{0.8});
    EXPECT_EQ(fleet.manager.state(0), ServerRecoveryState::Online);
    EXPECT_EQ(fleet.activeCores(0), 5u);
    EXPECT_EQ(fleet.activeCores(1), 5u);
    EXPECT_GT(
        obs::registry().counter("recovery.migrations_total").value(), 0);
}

TEST(RecoveryManager, MigrationsCountOnlyThreadsThatMove)
{
    obs::resetAll();
    std::vector<fault::FaultPlan> plans(4);
    plans[0].serverCrash(Seconds{0.3}, Seconds{0.5});
    TestFleet fleet(4, RecoveryPolicy{}, plans);
    obs::Counter &migrations =
        obs::registry().counter("recovery.migrations_total");
    const int64_t before = migrations.value();

    // A fault-free drop in demand frees threads on every server but
    // moves none from one server to another.
    fleet.manager.setWorkload(64, workerLoad());
    fleet.manager.setWorkload(32, workerLoad());
    fleet.run(Seconds{0.2});
    EXPECT_EQ(fleet.activeCores(0), 8u);
    EXPECT_EQ(migrations.value(), before);

    // A crash drains exactly the failed server's threads to survivors.
    fleet.run(Seconds{0.25});
    ASSERT_EQ(fleet.manager.state(0), ServerRecoveryState::Failed);
    EXPECT_EQ(fleet.manager.placedThreads(), 32u);
    EXPECT_EQ(migrations.value() - before, 8);
}

TEST(RecoveryManager, ReplaceRunsThePlacerOnlyWhereTheCountChanged)
{
    obs::resetAll();
    TestFleet fleet(4, RecoveryPolicy{});
    const obs::Counter &decisions =
        obs::registry().counter("placement.health.decisions");
    auto placed = [&fleet](size_t server) {
        size_t threads = 0;
        for (size_t count : fleet.manager.placedPerSocket(server))
            threads += count;
        return threads;
    };

    // The first placement decides every server.
    fleet.manager.setWorkload(32, workerLoad());
    EXPECT_EQ(decisions.value(), 4);

    // Same demand, same health: nothing to decide.
    fleet.manager.setWorkload(32, workerLoad());
    EXPECT_EQ(decisions.value(), 4);

    // One more thread changes one server's count; only it decides.
    fleet.manager.setWorkload(33, workerLoad());
    EXPECT_EQ(decisions.value(), 5);
    size_t grown = 0;
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_GE(placed(i), 8u);
        grown += placed(i) - 8;
    }
    EXPECT_EQ(grown, 1u);
}

TEST(RecoveryManager, CorrelatedStormClimbsLadderThenDeescalates)
{
    obs::resetAll();
    std::vector<fault::FaultPlan> plans(4);
    // Three near-simultaneous crashes: over the cascade threshold (3),
    // under the shed threshold (5).
    plans[0].serverCrash(Seconds{0.3}, Seconds{0.1});
    plans[1].serverCrash(Seconds{0.31}, Seconds{0.1});
    plans[2].serverCrash(Seconds{0.32}, Seconds{0.1});

    TestFleet fleet(4, RecoveryPolicy{}, plans);
    fleet.manager.setWorkload(16, workerLoad());

    fleet.run(Seconds{0.5});
    EXPECT_EQ(fleet.manager.degradationRung(), 2);
    // Rung 2: every servable socket forced to StaticGuardband.
    for (size_t socket = 0; socket < 2; ++socket) {
        EXPECT_EQ(fleet.servers[3]->chip(socket).commandedMode(),
                  chip::GuardbandMode::StaticGuardband);
    }

    // Storm clears; de-escalation walks one rung per clean window back
    // to healthy, and baseline modes return.
    fleet.run(Seconds{2.0});
    EXPECT_EQ(fleet.manager.degradationRung(), 0);
    EXPECT_EQ(fleet.manager.onlineCount(), 4u);
    for (size_t socket = 0; socket < 2; ++socket) {
        EXPECT_EQ(fleet.servers[3]->chip(socket).commandedMode(),
                  chip::GuardbandMode::AdaptiveUndervolt);
    }
    EXPECT_GE(
        obs::registry().counter("recovery.ladder_transitions_total")
            .value(),
        3);
}

TEST(RecoveryManager, CheckpointCapturesAreStaggered)
{
    // Server i's first capture lands i/N of an interval after server
    // 0's, so no tick encodes more than a slice of the fleet.
    TestFleet fleet(4, RecoveryPolicy{});
    fleet.manager.setWorkload(8, workerLoad());
    int64_t busiestTick = 0;
    for (int t = 0; t < 1000; ++t) {
        const int64_t before = fleet.manager.checkpoints();
        fleet.run(kDt);
        busiestTick =
            std::max(busiestTick, fleet.manager.checkpoints() - before);
    }
    EXPECT_EQ(busiestTick, 1);
    // Still one capture per server per interval once the phases are in.
    EXPECT_GE(fleet.manager.checkpoints(), 4 * 8);
}

TEST(RecoveryManager, EnabledIsBitIdenticalToDisabledWithoutFailures)
{
    RecoveryPolicy on;
    RecoveryPolicy off;
    off.enabled = false;

    TestFleet fleetOn(2, on);
    TestFleet fleetOff(2, off);
    fleetOn.manager.setWorkload(10, workerLoad());
    fleetOff.manager.setWorkload(10, workerLoad());

    fleetOn.run(Seconds{0.5});
    fleetOff.run(Seconds{0.5});

    // Watchdog, checkpointing, and the (quiescent) ladder must be pure
    // observers: identical telemetry, bit for bit.
    for (size_t i = 0; i < 2; ++i) {
        for (size_t socket = 0; socket < 2; ++socket) {
            const chip::Chip &a = fleetOn.servers[i]->chip(socket);
            const chip::Chip &b = fleetOff.servers[i]->chip(socket);
            EXPECT_EQ(a.power().value(), b.power().value());
            EXPECT_EQ(a.setpoint().value(), b.setpoint().value());
            EXPECT_EQ(a.simTime().value(), b.simTime().value());
            EXPECT_EQ(a.lastWorstMargin().value(),
                      b.lastWorstMargin().value());
            ASSERT_EQ(a.telemetry().windows().size(),
                      b.telemetry().windows().size());
            for (size_t w = 0; w < a.telemetry().windows().size(); ++w) {
                EXPECT_EQ(a.telemetry().windows()[w].worstMargin.value(),
                          b.telemetry().windows()[w].worstMargin.value());
                EXPECT_EQ(
                    a.telemetry().windows()[w].meanChipPower.value(),
                    b.telemetry().windows()[w].meanChipPower.value());
            }
        }
    }
    EXPECT_GT(fleetOn.manager.checkpoints(), 0);
    EXPECT_EQ(fleetOff.manager.checkpoints(), 0);
}

} // namespace
} // namespace agsim::recovery
