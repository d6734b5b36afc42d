#include "core/ags.h"

#include "common/error.h"

namespace agsim::core {

system::BatchTask
makeBatchTask(const ScheduledRunSpec &spec, PlacementPlan *planOut)
{
    fatalIf(spec.threads == 0, "scheduled run needs threads");

    PlacementPlan plan;
    if (spec.poweredCoreBudget == 0) {
        // Sec. 3 methodology: consolidated on socket 0, nothing gated.
        plan.threads = system::placeOnSocket(0, spec.threads);
    } else {
        plan = makePlacementPlan(
            spec.policy, spec.serverConfig.socketCount,
            spec.serverConfig.chipTemplate.coreCount, spec.threads,
            spec.poweredCoreBudget);
    }

    system::BatchTask task;
    task.serverConfig = spec.serverConfig;
    task.simConfig = spec.simConfig;
    task.mode = spec.mode;
    task.label = spec.profile.name;
    task.jobs.push_back(system::Job{
        workload::ThreadedWorkload(spec.profile, spec.runMode),
        plan.threads, spec.profile.name});
    task.gatedCores = plan.gatedCores;
    task.faultPlans = spec.faultPlans;

    if (planOut)
        *planOut = plan;
    return task;
}

ScheduledRunResult
runScheduled(const ScheduledRunSpec &spec)
{
    ScheduledRunResult result;
    const system::BatchTask task = makeBatchTask(spec, &result.plan);
    system::BatchResult batch = system::runBatchTask(task);
    result.metrics = std::move(batch.metrics);
    result.finalHealth = std::move(batch.finalHealth);
    return result;
}

std::vector<ScheduledRunResult>
runScheduledBatch(const std::vector<ScheduledRunSpec> &specs, size_t jobs)
{
    std::vector<ScheduledRunResult> results(specs.size());
    std::vector<system::BatchTask> tasks;
    tasks.reserve(specs.size());
    for (size_t i = 0; i < specs.size(); ++i)
        tasks.push_back(makeBatchTask(specs[i], &results[i].plan));

    std::vector<system::BatchResult> batch =
        system::BatchRunner::runAll(std::move(tasks), jobs);
    for (size_t i = 0; i < specs.size(); ++i) {
        results[i].metrics = std::move(batch[i].metrics);
        results[i].finalHealth = std::move(batch[i].finalHealth);
    }
    return results;
}

} // namespace agsim::core
