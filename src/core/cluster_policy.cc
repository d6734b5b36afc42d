#include "core/cluster_policy.h"

#include <algorithm>

#include "common/error.h"
#include "core/ags.h"

namespace agsim::core {

const char *
clusterStrategyName(ClusterStrategy strategy)
{
    switch (strategy) {
      case ClusterStrategy::ConsolidateServersConsolidateSockets:
        return "consolidate-servers+consolidate-sockets";
      case ClusterStrategy::ConsolidateServersBorrowSockets:
        return "consolidate-servers+borrow-sockets";
      case ClusterStrategy::SpreadServersBorrowSockets:
        return "spread-servers+borrow-sockets";
    }
    return "?";
}

std::vector<size_t>
serverLoads(const ClusterSpec &spec, size_t threads,
            ClusterStrategy strategy)
{
    std::vector<size_t> loads(spec.serverCount, 0);
    const size_t perServerCap = spec.poweredCoreBudgetPerServer;
    fatalIf(threads > perServerCap * spec.serverCount,
            "cluster cannot host the requested threads");

    if (strategy == ClusterStrategy::SpreadServersBorrowSockets) {
        // Round-robin never overfills a server: the capacity check
        // above bounds every share by the budget.
        for (size_t t = 0; t < threads; ++t)
            ++loads[t % spec.serverCount];
    } else {
        size_t remaining = threads;
        for (size_t s = 0; s < spec.serverCount && remaining > 0; ++s) {
            loads[s] = std::min(perServerCap, remaining);
            remaining -= loads[s];
        }
    }
    return loads;
}

namespace {

/** Per-active-server run specs for one strategy (submission order). */
std::vector<ScheduledRunSpec>
strategySpecs(const ClusterSpec &spec,
              const workload::BenchmarkProfile &profile, size_t threads,
              ClusterStrategy strategy)
{
    fatalIf(threads == 0, "cluster evaluation needs threads");
    const auto loads = serverLoads(spec, threads, strategy);
    const PlacementPolicy socketPolicy =
        strategy == ClusterStrategy::ConsolidateServersConsolidateSockets
            ? PlacementPolicy::Consolidate
            : PlacementPolicy::LoadlineBorrow;

    std::vector<ScheduledRunSpec> specs;
    for (size_t server = 0; server < spec.serverCount; ++server) {
        if (loads[server] == 0)
            continue; // server powered off entirely
        ScheduledRunSpec run;
        run.profile = profile;
        run.threads = loads[server];
        run.runMode = workload::RunMode::Rate;
        run.policy = socketPolicy;
        run.mode = chip::GuardbandMode::AdaptiveUndervolt;
        run.poweredCoreBudget = spec.poweredCoreBudgetPerServer;
        run.serverConfig = spec.serverConfig;
        run.simConfig.measureDuration = Seconds{1.0};
        specs.push_back(std::move(run));
    }
    return specs;
}

/** Fold per-server results into the cluster evaluation. */
ClusterEvaluation
aggregateStrategy(const ClusterSpec &spec, ClusterStrategy strategy,
                  const std::vector<ScheduledRunResult> &results,
                  size_t first, size_t count)
{
    ClusterEvaluation eval;
    eval.strategy = strategy;
    eval.activeServers = count;
    for (size_t i = 0; i < count; ++i) {
        eval.chipPower += results[first + i].metrics.totalChipPower;
        eval.platformPower += spec.platformPowerPerServer;
    }
    eval.totalPower = eval.chipPower + eval.platformPower;
    return eval;
}

} // namespace

ClusterEvaluation
evaluateClusterStrategy(const ClusterSpec &spec,
                        const workload::BenchmarkProfile &profile,
                        size_t threads, ClusterStrategy strategy,
                        size_t jobs)
{
    const auto specs = strategySpecs(spec, profile, threads, strategy);
    const auto results = runScheduledBatch(specs, jobs);
    return aggregateStrategy(spec, strategy, results, 0, results.size());
}

std::vector<ClusterEvaluation>
evaluateAllClusterStrategies(const ClusterSpec &spec,
                             const workload::BenchmarkProfile &profile,
                             size_t threads, size_t jobs)
{
    const ClusterStrategy strategies[] = {
        ClusterStrategy::ConsolidateServersConsolidateSockets,
        ClusterStrategy::ConsolidateServersBorrowSockets,
        ClusterStrategy::SpreadServersBorrowSockets,
    };

    // Flatten every strategy's per-server runs into one batch so the
    // pool stays busy across strategy boundaries.
    std::vector<ScheduledRunSpec> allSpecs;
    std::vector<size_t> counts;
    for (const auto strategy : strategies) {
        auto specs = strategySpecs(spec, profile, threads, strategy);
        counts.push_back(specs.size());
        for (auto &s : specs)
            allSpecs.push_back(std::move(s));
    }

    const auto results = runScheduledBatch(allSpecs, jobs);
    std::vector<ClusterEvaluation> evals;
    size_t first = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
        evals.push_back(aggregateStrategy(spec, strategies[i], results,
                                          first, counts[i]));
        first += counts[i];
    }
    return evals;
}

} // namespace agsim::core
