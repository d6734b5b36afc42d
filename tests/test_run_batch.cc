/**
 * @file
 * Parallel experiment runner tests: serial/parallel bit-identity,
 * submission-order results, and error propagation in both error modes
 * (runAll rethrows, runAllPartial reports).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/ags.h"
#include "obs/observability.h"
#include "system/run_batch.h"
#include "workload/library.h"

namespace agsim::system {
namespace {

/** A short scheduled run; heterogeneous knobs keep tasks distinct. */
core::ScheduledRunSpec
makeSpec(const std::string &workload, size_t threads,
         chip::GuardbandMode mode, Seconds measure)
{
    core::ScheduledRunSpec spec;
    spec.profile = agsim::workload::byName(workload);
    spec.threads = threads;
    spec.runMode = agsim::workload::RunMode::Rate;
    spec.mode = mode;
    spec.simConfig.warmup = Seconds{0.2};
    spec.simConfig.measureDuration = measure;
    return spec;
}

/** Bit-identity over every RunMetrics field (EXPECT_EQ on doubles). */
void
expectMetricsIdentical(const RunMetrics &a, const RunMetrics &b)
{
    EXPECT_EQ(a.executionTime, b.executionTime);
    EXPECT_EQ(a.socketPower, b.socketPower);
    EXPECT_EQ(a.totalChipPower, b.totalChipPower);
    EXPECT_EQ(a.chipEnergy, b.chipEnergy);
    EXPECT_EQ(a.edp, b.edp);
    EXPECT_EQ(a.meanFrequency, b.meanFrequency);
    EXPECT_EQ(a.minFrequency, b.minFrequency);
    EXPECT_EQ(a.socketUndervolt, b.socketUndervolt);
    EXPECT_EQ(a.socketSetpoint, b.socketSetpoint);
    EXPECT_EQ(a.meanChipMips, b.meanChipMips);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].instructions, b.jobs[i].instructions);
        EXPECT_EQ(a.jobs[i].meanRate, b.jobs[i].meanRate);
        EXPECT_EQ(a.jobs[i].completed, b.jobs[i].completed);
        EXPECT_EQ(a.jobs[i].completionTime, b.jobs[i].completionTime);
    }
}

TEST(RunBatch, ParallelIsBitIdenticalToSerial)
{
    // Heterogeneous sweep shaped like a figure bench: different
    // workloads, thread counts, and guardband modes.
    std::vector<core::ScheduledRunSpec> specs;
    specs.push_back(makeSpec("raytrace", 1,
                             chip::GuardbandMode::StaticGuardband, Seconds{0.1}));
    specs.push_back(makeSpec("raytrace", 8,
                             chip::GuardbandMode::AdaptiveUndervolt, Seconds{0.1}));
    specs.push_back(makeSpec("swaptions", 4,
                             chip::GuardbandMode::AdaptiveOverclock, Seconds{0.1}));
    specs.push_back(makeSpec("radix", 2,
                             chip::GuardbandMode::AdaptiveUndervolt, Seconds{0.2}));
    auto borrow = makeSpec("lu_cb", 4,
                           chip::GuardbandMode::AdaptiveUndervolt, Seconds{0.1});
    borrow.policy = core::PlacementPolicy::LoadlineBorrow;
    borrow.poweredCoreBudget = 8;
    specs.push_back(std::move(borrow));

    const auto serial = core::runScheduledBatch(specs, 1);
    const auto parallel = core::runScheduledBatch(specs, 4);

    ASSERT_EQ(serial.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        expectMetricsIdentical(serial[i].metrics, parallel[i].metrics);
        EXPECT_EQ(serial[i].plan.gatedCores, parallel[i].plan.gatedCores);
    }
}

TEST(RunBatch, BatchOfOneMatchesRunScheduled)
{
    const auto spec = makeSpec(
        "raytrace", 4, chip::GuardbandMode::AdaptiveUndervolt, Seconds{0.1});
    const auto direct = core::runScheduled(spec);
    const auto batched = core::runScheduledBatch({spec}, 4);
    ASSERT_EQ(batched.size(), 1u);
    expectMetricsIdentical(direct.metrics, batched[0].metrics);
}

TEST(RunBatch, ResultsComeBackInSubmissionOrder)
{
    // First-submitted task runs longest: with 4 workers it finishes
    // *last*, so order must come from submission, not completion.
    const Seconds durations[] = {Seconds{0.4}, Seconds{0.2}, Seconds{0.1}, Seconds{0.05}};
    std::vector<BatchTask> tasks;
    for (size_t i = 0; i < 4; ++i) {
        auto spec = makeSpec("raytrace", 1,
                             chip::GuardbandMode::StaticGuardband,
                             durations[i]);
        auto task = core::makeBatchTask(spec);
        task.label = "task" + std::to_string(i);
        tasks.push_back(std::move(task));
    }

    const auto results = BatchRunner::runAll(std::move(tasks), 4);
    ASSERT_EQ(results.size(), 4u);
    for (size_t i = 0; i < 4; ++i)
        EXPECT_EQ(results[i].label, "task" + std::to_string(i));
}

TEST(RunBatch, WorkerExceptionsPropagateToWait)
{
    // Two failures with different messages: runAll runs the whole
    // sweep, then rethrows the first failure in submission order.
    auto good = core::makeBatchTask(makeSpec(
        "raytrace", 1, chip::GuardbandMode::StaticGuardband, Seconds{0.05}));
    auto serverScope = makeSpec(
        "raytrace", 1, chip::GuardbandMode::StaticGuardband, Seconds{0.05});
    serverScope.faultPlans.emplace_back(
        0, fault::FaultPlan().serverCrash(Seconds{0.01}, Seconds{0.02}));

    std::vector<BatchTask> tasks;
    tasks.push_back(std::move(good));
    tasks.push_back(BatchTask()); // no jobs: rejected on the worker
    tasks.push_back(core::makeBatchTask(serverScope));

    try {
        BatchRunner::runAll(std::move(tasks), 2);
        ADD_FAILURE() << "runAll swallowed the task failures";
    } catch (const ConfigError &e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("job"), std::string::npos) << message;
        EXPECT_EQ(message.find("server-scope"), std::string::npos)
            << message;
    }
}

TEST(RunBatch, EmptyBatchIsEmpty)
{
    EXPECT_TRUE(core::runScheduledBatch({}, 4).empty());
    EXPECT_TRUE(BatchRunner::runAll({}, 4).empty());
}

TEST(RunBatch, ContinueOnErrorReturnsPartialResults)
{
    auto spec = makeSpec(
        "raytrace", 1, chip::GuardbandMode::StaticGuardband, Seconds{0.05});

    std::vector<BatchTask> tasks;
    tasks.push_back(core::makeBatchTask(spec));
    tasks[0].label = "good0";
    tasks.push_back(BatchTask()); // no jobs: rejected on the worker
    tasks[1].label = "badTask";
    tasks.push_back(core::makeBatchTask(spec));
    tasks[2].label = "good2";

    obs::Counter &failures =
        obs::registry().counter("batch.task_failures");
    const int64_t failuresBefore = failures.value();
    BatchOutcome outcome;
    EXPECT_NO_THROW(outcome = BatchRunner::runAllPartial(std::move(tasks), 2));
    EXPECT_EQ(failures.value() - failuresBefore, 1);

    const std::vector<BatchResult> &results = outcome.results;
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].label, "good0");
    EXPECT_EQ(results[1].label, ""); // failed slot: default-constructed
    EXPECT_EQ(results[2].label, "good2");
    EXPECT_GT(results[0].metrics.totalChipPower, Watts{0.0});
    EXPECT_GT(results[2].metrics.totalChipPower, Watts{0.0});

    ASSERT_EQ(outcome.errors.size(), 1u);
    EXPECT_EQ(outcome.errors[0].taskIndex, 1u);
    EXPECT_EQ(outcome.errors[0].label, "badTask");
    EXPECT_NE(outcome.errors[0].message.find("job"), std::string::npos);
}

TEST(RunBatch, WaitOutcomeCapturesErrorsUnderBothPolicies)
{
    // The same failing batch under both error modes: runAll throws,
    // runAllPartial reports the failure and keeps the good result.
    auto spec = makeSpec(
        "raytrace", 1, chip::GuardbandMode::StaticGuardband, Seconds{0.05});
    const auto makeTasks = [&] {
        std::vector<BatchTask> tasks;
        tasks.push_back(core::makeBatchTask(spec));
        tasks[0].label = "good";
        tasks.push_back(BatchTask()); // fails: no jobs
        return tasks;
    };

    EXPECT_THROW(BatchRunner::runAll(makeTasks(), 2), ConfigError);

    BatchOutcome outcome;
    EXPECT_NO_THROW(outcome = BatchRunner::runAllPartial(makeTasks(), 2));
    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_EQ(outcome.results[0].label, "good");
    ASSERT_EQ(outcome.errors.size(), 1u);
    EXPECT_EQ(outcome.errors[0].taskIndex, 1u);
}

TEST(RunBatch, RunAllPartialMatchesSerialAndParallel)
{
    auto spec = makeSpec(
        "raytrace", 1, chip::GuardbandMode::StaticGuardband, Seconds{0.05});

    for (size_t workers : {size_t(1), size_t(4)}) {
        std::vector<BatchTask> tasks;
        tasks.push_back(core::makeBatchTask(spec));
        tasks[0].label = "ok0";
        tasks.push_back(BatchTask()); // fails
        tasks[1].label = "broken";
        tasks.push_back(core::makeBatchTask(spec));
        tasks[2].label = "ok2";

        const BatchOutcome outcome =
            BatchRunner::runAllPartial(std::move(tasks), workers);
        ASSERT_EQ(outcome.results.size(), 3u) << workers << " workers";
        EXPECT_EQ(outcome.results[0].label, "ok0");
        EXPECT_EQ(outcome.results[2].label, "ok2");
        ASSERT_EQ(outcome.errors.size(), 1u);
        EXPECT_EQ(outcome.errors[0].taskIndex, 1u);
        EXPECT_EQ(outcome.errors[0].label, "broken");
        EXPECT_FALSE(outcome.errors[0].message.empty());
    }
}

TEST(RunBatch, FaultPlansDemoteAndSurfaceInFinalHealth)
{
    auto spec = makeSpec("swaptions", 4,
                         chip::GuardbandMode::AdaptiveOverclock,
                         Seconds{0.1});
    spec.simConfig.warmup = Seconds{0.4};
    // Storm + CPM dropout: blind cores get assessed against the
    // storm-scaled envelope, which reliably demotes the socket.
    fault::FaultPlan plan;
    plan.droopStorm(Seconds{0.05}, Seconds{0.0}, 30.0, 1.8)
        .cpmDropout(Seconds{0.05}, Seconds{0.0});
    spec.faultPlans.emplace_back(0, plan);

    const auto result = core::runScheduled(spec);
    ASSERT_EQ(result.finalHealth.size(), 2u);
    // The targeted socket demoted; the other stayed healthy.
    EXPECT_TRUE(result.finalHealth[0].demoted());
    EXPECT_EQ(result.finalHealth[0].commandedMode,
              chip::GuardbandMode::AdaptiveOverclock);
    EXPECT_EQ(result.finalHealth[0].effectiveMode,
              chip::GuardbandMode::StaticGuardband);
    EXPECT_GE(result.finalHealth[0].emergencies, 1);
    EXPECT_TRUE(result.finalHealth[1].healthy());
    EXPECT_EQ(result.finalHealth[1].demotions, 0);
}

TEST(RunBatch, FaultInjectedBatchesStayBitIdentical)
{
    fault::FaultPlan plan;
    plan.droopStorm(Seconds{0.05}, Seconds{0.0}, 10.0, 1.5)
        .cpmDropout(Seconds{0.05}, Seconds{0.0});
    std::vector<core::ScheduledRunSpec> specs;
    for (int i = 0; i < 3; ++i) {
        auto spec = makeSpec("swaptions", 2,
                             chip::GuardbandMode::AdaptiveOverclock,
                             Seconds{0.1});
        spec.faultPlans.emplace_back(0, plan);
        specs.push_back(std::move(spec));
    }

    const auto serial = core::runScheduledBatch(specs, 1);
    const auto parallel = core::runScheduledBatch(specs, 3);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        expectMetricsIdentical(serial[i].metrics, parallel[i].metrics);
        ASSERT_EQ(serial[i].finalHealth.size(),
                  parallel[i].finalHealth.size());
        for (size_t s = 0; s < serial[i].finalHealth.size(); ++s) {
            EXPECT_EQ(serial[i].finalHealth[s].state,
                      parallel[i].finalHealth[s].state);
            EXPECT_EQ(serial[i].finalHealth[s].demotions,
                      parallel[i].finalHealth[s].demotions);
            EXPECT_EQ(serial[i].finalHealth[s].emergencies,
                      parallel[i].finalHealth[s].emergencies);
            EXPECT_EQ(serial[i].finalHealth[s].latchedDroopDepth,
                      parallel[i].finalHealth[s].latchedDroopDepth);
        }
    }
}

TEST(RunBatch, FaultPlanSocketOutOfRangeIsRejected)
{
    auto spec = makeSpec("swaptions", 1,
                         chip::GuardbandMode::StaticGuardband,
                         Seconds{0.05});
    spec.faultPlans.emplace_back(7, fault::FaultPlan().vrmDacStuck(
                                        Seconds{0.0}));
    EXPECT_THROW(core::runScheduled(spec), ConfigError);
}

TEST(RunBatch, ServerScopePlanSurfacesAsPerTaskError)
{
    // Server-level faults (crash/hang/VRM shutdown) belong to the
    // recovery subsystem, not to a chip-scope batch plan: the injector
    // rejects them at attach time, and under runAllPartial that
    // rejection must cost only the offending task.
    auto good = makeSpec(
        "raytrace", 1, chip::GuardbandMode::StaticGuardband, Seconds{0.05});
    auto bad = makeSpec(
        "raytrace", 1, chip::GuardbandMode::StaticGuardband, Seconds{0.05});
    bad.faultPlans.emplace_back(
        0, fault::FaultPlan().serverCrash(Seconds{0.01}, Seconds{0.02}));

    EXPECT_THROW(core::runScheduled(bad), ConfigError);

    std::vector<BatchTask> tasks;
    tasks.push_back(core::makeBatchTask(good));
    tasks[0].label = "good";
    tasks.push_back(core::makeBatchTask(bad));
    tasks[1].label = "serverScope";

    const BatchOutcome outcome =
        BatchRunner::runAllPartial(std::move(tasks), 2);
    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), 2u);
    EXPECT_EQ(outcome.results[0].label, "good");
    EXPECT_GT(outcome.results[0].metrics.totalChipPower, Watts{0.0});
    ASSERT_EQ(outcome.errors.size(), 1u);
    EXPECT_EQ(outcome.errors[0].taskIndex, 1u);
    EXPECT_EQ(outcome.errors[0].label, "serverScope");
    EXPECT_NE(outcome.errors[0].message.find("server-scope"),
              std::string::npos);
}

TEST(RunBatch, AllClearOutcomeIsOk)
{
    auto spec = makeSpec(
        "raytrace", 1, chip::GuardbandMode::StaticGuardband, Seconds{0.05});
    std::vector<BatchTask> tasks;
    tasks.push_back(core::makeBatchTask(spec));
    const BatchOutcome outcome =
        BatchRunner::runAllPartial(std::move(tasks), 1);
    EXPECT_TRUE(outcome.ok());
    EXPECT_EQ(outcome.results.size(), 1u);
}

} // namespace
} // namespace agsim::system
