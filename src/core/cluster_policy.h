/**
 * @file
 * Cluster-level scheduling extension (paper Sec. 5.1.1, "future
 * studies" paragraph).
 *
 * The paper scopes loadline borrowing to one multisocket server and
 * notes the cluster-level interaction: when consolidation can *power
 * off whole servers*, the platform power saved (memory, disks, fans)
 * outweighs the chip-level savings borrowing offers — so a cluster
 * scheduler should first consolidate onto the fewest servers, then
 * loadline-borrow within each active server. This module implements and
 * quantifies that two-level policy.
 */

#ifndef AGSIM_CORE_CLUSTER_POLICY_H
#define AGSIM_CORE_CLUSTER_POLICY_H

#include <cstddef>
#include <string>
#include <vector>

#include "system/server.h"
#include "workload/profile.h"

namespace agsim::core {

/** How the cluster distributes load across servers. */
enum class ClusterStrategy
{
    /** Fill the fewest servers; consolidate within each. */
    ConsolidateServersConsolidateSockets,
    /** Fill the fewest servers; loadline-borrow within each (the
     *  paper's recommended two-level policy). */
    ConsolidateServersBorrowSockets,
    /** Spread across every server; borrow within each. */
    SpreadServersBorrowSockets,
};

/** Human-readable strategy name. */
const char *clusterStrategyName(ClusterStrategy strategy);

/** Cluster evaluation outcome. */
struct ClusterEvaluation
{
    ClusterStrategy strategy;
    size_t activeServers = 0;
    /** Mean chip power summed over active servers. */
    Watts chipPower = Watts{0.0};
    /** Platform power of powered servers. */
    Watts platformPower = Watts{0.0};
    /** Total cluster power. */
    Watts totalPower = Watts{0.0};
};

/** Cluster setup. */
struct ClusterSpec
{
    /** Identical servers available. */
    size_t serverCount = 4;
    /** Per-server powered-core budget when a server is active. */
    size_t poweredCoreBudgetPerServer = 8;
    /** Platform power burned by any powered-on server. */
    Watts platformPowerPerServer = Watts{120.0};
    /** Server/socket/chip configuration. */
    system::ServerConfig serverConfig;
};

/**
 * Threads assigned to each server under a strategy (the cluster
 * scheduler's dry-run, the plain Sec. 5.1.1 policy): consolidation
 * fills the lowest-indexed servers to the per-server budget, spreading
 * round-robins over every server.
 */
std::vector<size_t> serverLoads(const ClusterSpec &spec, size_t threads,
                                ClusterStrategy strategy);

/**
 * Evaluate one strategy for `threads` threads of `profile` across the
 * cluster; runs the full per-server simulation for every distinct
 * server load it creates.
 *
 * @param jobs Per-server simulations to run concurrently (they are
 *        independent); 1 = serial, 0 = hardware concurrency.
 */
ClusterEvaluation evaluateClusterStrategy(const ClusterSpec &spec,
                                          const workload::BenchmarkProfile &
                                              profile,
                                          size_t threads,
                                          ClusterStrategy strategy,
                                          size_t jobs = 1);

/**
 * Evaluate all strategies (for the ablation bench). With `jobs` > 1 the
 * per-server runs of every strategy are flattened into one batch.
 */
std::vector<ClusterEvaluation>
evaluateAllClusterStrategies(const ClusterSpec &spec,
                             const workload::BenchmarkProfile &profile,
                             size_t threads, size_t jobs = 1);

} // namespace agsim::core

#endif // AGSIM_CORE_CLUSTER_POLICY_H
