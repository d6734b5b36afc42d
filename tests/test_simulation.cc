/**
 * @file
 * Server and WorkloadSimulation tests: placement validation, metric
 * consistency, run-to-completion vs rate modes.
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "system/simulation.h"
#include "workload/library.h"

namespace agsim::system {
namespace {

using chip::GuardbandMode;
using workload::RunMode;
using workload::ThreadedWorkload;
using workload::byName;

Job
makeJob(const std::string &name, std::vector<ThreadPlacement> placement,
        RunMode mode = RunMode::Multithreaded)
{
    return Job{ThreadedWorkload(byName(name), mode), std::move(placement),
               name};
}

TEST(Server, TwoSocketsByDefault)
{
    Server server;
    EXPECT_EQ(server.socketCount(), 2u);
    EXPECT_EQ(server.vrm().railCount(), 2u);
    EXPECT_EQ(server.chip(0).coreCount(), 8u);
}

TEST(Server, SocketsHaveDistinctPersonalities)
{
    Server server;
    EXPECT_NE(server.chip(0).config().seed, server.chip(1).config().seed);
    EXPECT_EQ(server.chip(0).config().railIndex, 0u);
    EXPECT_EQ(server.chip(1).config().railIndex, 1u);
}

TEST(Server, ChipsListsSocketsInOrder)
{
    Server server;
    const std::vector<chip::Chip *> chips = server.chips();
    ASSERT_EQ(chips.size(), server.socketCount());
    for (size_t s = 0; s < chips.size(); ++s)
        EXPECT_EQ(chips[s], &server.chip(s));
}

TEST(Server, TotalPowerSumsSockets)
{
    Server server;
    server.setMode(GuardbandMode::StaticGuardband);
    server.settle(Seconds{0.2});
    EXPECT_NEAR(server.totalChipPower(),
                server.chip(0).power() + server.chip(1).power(), 1e-9);
    // System power adds the Vcs rails and the platform constant.
    EXPECT_NEAR(server.totalSystemPower(),
                server.totalChipPower() + server.chip(0).vcsPower() +
                    server.chip(1).vcsPower() +
                    server.config().platformPower,
                1e-9);
}

TEST(Placements, Helpers)
{
    const auto onSocket = placeOnSocket(1, 3);
    ASSERT_EQ(onSocket.size(), 3u);
    EXPECT_EQ(onSocket[2].socket, 1u);
    EXPECT_EQ(onSocket[2].core, 2u);
}

TEST(WorkloadSimulation, RejectsBadPlacements)
{
    Server server;
    WorkloadSimulation sim(&server);
    EXPECT_THROW(sim.addJob(makeJob("raytrace", {})), ConfigError);
    EXPECT_THROW(sim.addJob(makeJob("raytrace", {{5, 0}})), ConfigError);
    EXPECT_THROW(sim.addJob(makeJob("raytrace", {{0, 9}})), ConfigError);
    EXPECT_THROW(sim.addJob(makeJob("raytrace", {{0, 0}, {0, 0}})),
                 ConfigError);
    sim.addJob(makeJob("raytrace", {{0, 0}}));
    // Cross-job collision.
    EXPECT_THROW(sim.addJob(makeJob("lu_cb", {{0, 0}})), ConfigError);
}

TEST(WorkloadSimulation, GatingValidation)
{
    Server server;
    WorkloadSimulation sim(&server);
    sim.addJob(makeJob("raytrace", {{0, 0}}));
    EXPECT_THROW(sim.gateCore(0, 0), ConfigError); // runs a thread
    EXPECT_NO_THROW(sim.gateCore(0, 7));
    EXPECT_THROW(sim.gateCore(9, 0), ConfigError);
}

TEST(WorkloadSimulation, RateRunMetricsConsistent)
{
    Server server;
    server.setMode(GuardbandMode::StaticGuardband);
    WorkloadSimulation sim(&server);
    sim.addJob(makeJob("raytrace", placeOnSocket(0, 4)));

    SimulationConfig config;
    config.measureDuration = Seconds{0.5};
    config.warmup = Seconds{0.3};
    const RunMetrics metrics = sim.run(config);

    EXPECT_NEAR(metrics.executionTime, Seconds{0.5}, Seconds{1e-6});
    ASSERT_EQ(metrics.socketPower.size(), 2u);
    EXPECT_GT(metrics.socketPower[0], metrics.socketPower[1]);
    EXPECT_NEAR(metrics.totalChipPower,
                metrics.socketPower[0] + metrics.socketPower[1], 1e-9);
    // Energy == mean power * time for a near-stationary run.
    EXPECT_NEAR(metrics.chipEnergy,
                metrics.totalChipPower * metrics.executionTime,
                metrics.chipEnergy * 0.02);
    EXPECT_NEAR(metrics.edp, metrics.chipEnergy * metrics.executionTime,
                1e-6);
    ASSERT_EQ(metrics.jobs.size(), 1u);
    EXPECT_GT(metrics.jobs[0].meanRate, InstrPerSec{0.0});
    EXPECT_GT(metrics.meanChipMips, 0.0);
    // 4 raytrace threads at ~8.6k MIPS each, minus losses.
    EXPECT_GT(metrics.meanChipMips, 20000.0);
    EXPECT_LT(metrics.meanChipMips, 40000.0);
}

TEST(WorkloadSimulation, RunToCompletionFinishesWork)
{
    Server server;
    server.setMode(GuardbandMode::StaticGuardband);
    WorkloadSimulation sim(&server);
    Job job = makeJob("swaptions", placeOnSocket(0, 8));
    // Shrink the work so the test is fast: ~2 s of simulated compute.
    workload::BenchmarkProfile small = byName("swaptions");
    small.totalInstructions = Instructions{100e9};
    job.work = ThreadedWorkload(small, RunMode::Multithreaded);
    sim.addJob(std::move(job));

    SimulationConfig config;
    config.warmup = Seconds{0.2};
    const RunMetrics metrics = sim.run(config);
    ASSERT_EQ(metrics.jobs.size(), 1u);
    EXPECT_TRUE(metrics.jobs[0].completed);
    EXPECT_GT(metrics.jobs[0].completionTime, Seconds{0.0});
    EXPECT_GE(metrics.jobs[0].instructions, Instructions{100e9});
    EXPECT_LT(metrics.executionTime, Seconds{10.0});
}

TEST(WorkloadSimulation, OverclockShortensExecution)
{
    auto runWith = [](GuardbandMode mode) {
        Server server;
        server.setMode(mode);
        WorkloadSimulation sim(&server);
        workload::BenchmarkProfile small = byName("swaptions");
        small.totalInstructions = Instructions{150e9};
        sim.addJob(Job{ThreadedWorkload(small, RunMode::Multithreaded),
                       placeOnSocket(0, 1), "swaptions"});
        SimulationConfig config;
        config.warmup = Seconds{0.3};
        return sim.run(config);
    };
    const auto staticRun = runWith(GuardbandMode::StaticGuardband);
    const auto boosted = runWith(GuardbandMode::AdaptiveOverclock);
    ASSERT_TRUE(staticRun.jobs[0].completed);
    ASSERT_TRUE(boosted.jobs[0].completed);
    // Paper Fig. 4b: ~8% speedup at one core for a compute-bound job.
    const double speedup = staticRun.jobs[0].completionTime /
                           boosted.jobs[0].completionTime;
    EXPECT_GT(speedup, 1.05);
    EXPECT_LT(speedup, 1.12);
}

TEST(WorkloadSimulation, MultiJobColocationSharesChip)
{
    Server server;
    server.setMode(GuardbandMode::AdaptiveOverclock);
    WorkloadSimulation sim(&server);
    std::vector<ThreadPlacement> first, second;
    for (size_t i = 0; i < 4; ++i)
        first.push_back({0, i});
    for (size_t i = 4; i < 8; ++i)
        second.push_back({0, i});
    sim.addJob(makeJob("coremark", first, RunMode::Rate));
    sim.addJob(makeJob("mcf", second, RunMode::Rate));

    SimulationConfig config;
    config.measureDuration = Seconds{0.5};
    config.warmup = Seconds{0.3};
    const RunMetrics metrics = sim.run(config);
    ASSERT_EQ(metrics.jobs.size(), 2u);
    EXPECT_GT(metrics.jobs[0].meanRate, metrics.jobs[1].meanRate);
}

TEST(WorkloadSimulation, GatedSpareCoresCutPower)
{
    auto measure = [](bool gateSpares) {
        Server server;
        server.setMode(GuardbandMode::StaticGuardband);
        WorkloadSimulation sim(&server);
        sim.addJob(makeJob("raytrace", placeOnSocket(0, 2)));
        if (gateSpares) {
            for (size_t core = 2; core < 8; ++core)
                sim.gateCore(0, core);
            for (size_t core = 0; core < 8; ++core)
                sim.gateCore(1, core);
        }
        SimulationConfig config;
        config.measureDuration = Seconds{0.3};
        config.warmup = Seconds{0.3};
        return sim.run(config).totalChipPower;
    };
    EXPECT_LT(measure(true), measure(false) - Watts{20.0});
}

TEST(WorkloadSimulation, EmptyRunRejected)
{
    Server server;
    WorkloadSimulation sim(&server);
    EXPECT_THROW(sim.run(SimulationConfig()), ConfigError);
}

} // namespace
} // namespace agsim::system
