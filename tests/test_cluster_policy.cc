/**
 * @file
 * Cluster-policy tests (the Sec. 5.1.1 two-level extension).
 */

#include <gtest/gtest.h>

#include "common/error.h"
#include "core/cluster_policy.h"
#include "workload/library.h"

namespace agsim::core {
namespace {

ClusterSpec
smallSpec()
{
    ClusterSpec spec;
    spec.serverCount = 3;
    spec.poweredCoreBudgetPerServer = 8;
    spec.platformPowerPerServer = Watts{120.0};
    return spec;
}

TEST(ClusterPolicy, ConsolidationPowersFewestServers)
{
    const auto spec = smallSpec();
    const auto &profile = workload::byName("raytrace");
    const auto eval = evaluateClusterStrategy(
        spec, profile, 8,
        ClusterStrategy::ConsolidateServersBorrowSockets);
    EXPECT_EQ(eval.activeServers, 1u);
    EXPECT_NEAR(eval.platformPower, Watts{120.0}, Watts{1e-9});
    EXPECT_GT(eval.chipPower, Watts{0.0});
    EXPECT_NEAR(eval.totalPower, eval.chipPower + eval.platformPower,
                1e-9);
}

TEST(ClusterPolicy, SpreadingPowersAllServers)
{
    const auto spec = smallSpec();
    const auto &profile = workload::byName("raytrace");
    const auto eval = evaluateClusterStrategy(
        spec, profile, 6, ClusterStrategy::SpreadServersBorrowSockets);
    EXPECT_EQ(eval.activeServers, 3u);
    EXPECT_NEAR(eval.platformPower, Watts{360.0}, Watts{1e-9});
}

TEST(ClusterPolicy, PaperRecommendationHoldsAtClusterLevel)
{
    // Sec. 5.1.1: platform power dominates — consolidate onto the fewest
    // servers first, then borrow within each. Spreading across servers
    // must lose once platform power is counted.
    const auto spec = smallSpec();
    const auto &profile = workload::byName("lu_cb");
    const auto all = evaluateAllClusterStrategies(spec, profile, 8);
    ASSERT_EQ(all.size(), 3u);
    const auto &consCons = all[0];
    const auto &consBorrow = all[1];
    const auto &spreadBorrow = all[2];

    // Within the consolidated-server pair, borrowing sockets wins.
    EXPECT_LT(consBorrow.totalPower, consCons.totalPower);
    // Spreading servers loses to both consolidated strategies.
    EXPECT_GT(spreadBorrow.totalPower, consBorrow.totalPower);
    EXPECT_GT(spreadBorrow.totalPower, consCons.totalPower);
}

TEST(ClusterPolicy, OverflowSpillsToNextServer)
{
    const auto spec = smallSpec();
    const auto &profile = workload::byName("gcc");
    const auto eval = evaluateClusterStrategy(
        spec, profile, 12,
        ClusterStrategy::ConsolidateServersBorrowSockets);
    EXPECT_EQ(eval.activeServers, 2u);
}

TEST(ClusterPolicy, RejectsOverCapacity)
{
    const auto spec = smallSpec();
    const auto &profile = workload::byName("gcc");
    EXPECT_THROW(evaluateClusterStrategy(
                     spec, profile, 25,
                     ClusterStrategy::SpreadServersBorrowSockets),
                 ConfigError);
    EXPECT_THROW(evaluateClusterStrategy(
                     spec, profile, 0,
                     ClusterStrategy::SpreadServersBorrowSockets),
                 ConfigError);
}

TEST(ClusterPolicy, ServerLoadsFollowTheStrategy)
{
    const ClusterSpec spec = smallSpec();
    // Consolidation fills the lowest-indexed servers first.
    EXPECT_EQ(serverLoads(spec, 8,
                          ClusterStrategy::ConsolidateServersBorrowSockets),
              (std::vector<size_t>{8, 0, 0}));
    EXPECT_EQ(serverLoads(spec, 20,
                          ClusterStrategy::ConsolidateServersBorrowSockets),
              (std::vector<size_t>{8, 8, 4}));
    // Spreading round-robins over every server.
    EXPECT_EQ(serverLoads(spec, 6,
                          ClusterStrategy::SpreadServersBorrowSockets),
              (std::vector<size_t>{2, 2, 2}));
}

TEST(ClusterPolicy, StrategyNames)
{
    EXPECT_STREQ(clusterStrategyName(
                     ClusterStrategy::ConsolidateServersBorrowSockets),
                 "consolidate-servers+borrow-sockets");
}

} // namespace
} // namespace agsim::core
