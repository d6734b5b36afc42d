/**
 * @file
 * Placement-plan tests: consolidation vs loadline borrowing.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/error.h"
#include "core/placement.h"

namespace agsim::core {
namespace {

size_t
threadsOnSocket(const PlacementPlan &plan, size_t socket)
{
    size_t count = 0;
    for (const auto &t : plan.threads)
        count += t.socket == socket ? 1 : 0;
    return count;
}

TEST(Placement, ConsolidateFillsOneSocket)
{
    const auto plan = makePlacementPlan(PlacementPolicy::Consolidate, 2, 8,
                                        8, 8);
    EXPECT_EQ(plan.threads.size(), 8u);
    EXPECT_EQ(threadsOnSocket(plan, 0), 8u);
    EXPECT_EQ(threadsOnSocket(plan, 1), 0u);
    // Socket 1 is entirely gated; socket 0 has no spare powered cores.
    EXPECT_EQ(plan.gatedCores.size(), 8u);
    EXPECT_TRUE(plan.idleCores.empty());
    for (const auto &[socket, core] : plan.gatedCores)
        EXPECT_EQ(socket, 1u) << core;
}

TEST(Placement, BorrowBalancesSockets)
{
    const auto plan = makePlacementPlan(PlacementPolicy::LoadlineBorrow, 2,
                                        8, 8, 8);
    EXPECT_EQ(threadsOnSocket(plan, 0), 4u);
    EXPECT_EQ(threadsOnSocket(plan, 1), 4u);
    EXPECT_EQ(plan.gatedCores.size(), 8u);
    size_t gatedOnSocket0 = 0;
    for (const auto &[socket, core] : plan.gatedCores)
        gatedOnSocket0 += socket == 0 ? 1 : 0;
    EXPECT_EQ(gatedOnSocket0, 4u);
}

TEST(Placement, PartialLoadLeavesIdleReserve)
{
    // The paper's scenario: 8 of 16 cores on, fewer threads than budget.
    const auto cons = makePlacementPlan(PlacementPolicy::Consolidate, 2, 8,
                                        2, 8);
    EXPECT_EQ(threadsOnSocket(cons, 0), 2u);
    EXPECT_EQ(cons.idleCores.size(), 6u); // 6 powered idle on socket 0
    EXPECT_EQ(cons.gatedCores.size(), 8u);

    const auto borrow = makePlacementPlan(PlacementPolicy::LoadlineBorrow,
                                          2, 8, 2, 8);
    EXPECT_EQ(threadsOnSocket(borrow, 0), 1u);
    EXPECT_EQ(threadsOnSocket(borrow, 1), 1u);
    EXPECT_EQ(borrow.idleCores.size(), 6u); // 3 per socket
    EXPECT_EQ(borrow.gatedCores.size(), 8u);
}

TEST(Placement, OddThreadCountsBalanceWithinOne)
{
    const auto plan = makePlacementPlan(PlacementPolicy::LoadlineBorrow, 2,
                                        8, 5, 8);
    const size_t s0 = threadsOnSocket(plan, 0);
    const size_t s1 = threadsOnSocket(plan, 1);
    EXPECT_EQ(s0 + s1, 5u);
    EXPECT_LE(s0 > s1 ? s0 - s1 : s1 - s0, 1u);
}

TEST(Placement, EveryCoreAccountedExactlyOnce)
{
    for (auto policy : {PlacementPolicy::Consolidate,
                        PlacementPolicy::LoadlineBorrow}) {
        const auto plan = makePlacementPlan(policy, 2, 8, 3, 10);
        std::set<std::pair<size_t, size_t>> seen;
        for (const auto &t : plan.threads)
            EXPECT_TRUE(seen.insert({t.socket, t.core}).second);
        for (const auto &c : plan.idleCores)
            EXPECT_TRUE(seen.insert(c).second);
        for (const auto &c : plan.gatedCores)
            EXPECT_TRUE(seen.insert(c).second);
        EXPECT_EQ(seen.size(), 16u);
    }
}

TEST(Placement, BudgetSpillsToSecondSocketWhenConsolidating)
{
    const auto plan = makePlacementPlan(PlacementPolicy::Consolidate, 2, 8,
                                        10, 12);
    EXPECT_EQ(threadsOnSocket(plan, 0), 8u);
    EXPECT_EQ(threadsOnSocket(plan, 1), 2u);
    EXPECT_EQ(plan.idleCores.size(), 2u);
    EXPECT_EQ(plan.gatedCores.size(), 4u);
}

TEST(Placement, FourSocketBorrow)
{
    const auto plan = makePlacementPlan(PlacementPolicy::LoadlineBorrow, 4,
                                        8, 8, 16);
    for (size_t s = 0; s < 4; ++s)
        EXPECT_EQ(threadsOnSocket(plan, s), 2u);
}

TEST(Placement, Validation)
{
    EXPECT_THROW(makePlacementPlan(PlacementPolicy::Consolidate, 0, 8, 1,
                                   1), ConfigError);
    EXPECT_THROW(makePlacementPlan(PlacementPolicy::Consolidate, 2, 8, 0,
                                   8), ConfigError);
    // Budget below thread count.
    EXPECT_THROW(makePlacementPlan(PlacementPolicy::Consolidate, 2, 8, 6,
                                   4), ConfigError);
    // Budget above machine.
    EXPECT_THROW(makePlacementPlan(PlacementPolicy::Consolidate, 2, 8, 4,
                                   20), ConfigError);
}

TEST(SplitByWeight, SharesSumToTheCount)
{
    const std::vector<double> weights = {3.0, 0.0, 1.5, 7.25, 2.0};
    for (uint64_t count : {0u, 1u, 2u, 7u, 13u, 100u, 1001u}) {
        const std::vector<uint64_t> shares = splitByWeight(count, weights);
        ASSERT_EQ(shares.size(), weights.size());
        uint64_t sum = 0;
        for (uint64_t share : shares)
            sum += share;
        EXPECT_EQ(sum, count);
        EXPECT_EQ(shares[1], 0u) << "zero weight gets nothing";
    }
    EXPECT_EQ(splitByWeight(5, {0.0, 0.0}),
              (std::vector<uint64_t>{0, 0}));
}

TEST(SplitByWeight, TiesBreakByIndex)
{
    EXPECT_EQ(splitByWeight(2, {1.0, 1.0, 1.0}),
              (std::vector<uint64_t>{1, 1, 0}));
    EXPECT_EQ(splitByWeight(5, {4.0, 4.0, 4.0, 4.0}),
              (std::vector<uint64_t>{2, 1, 1, 1}));
    // The largest remainder wins before any tie-break.
    EXPECT_EQ(splitByWeight(1, {1.0, 2.0}),
              (std::vector<uint64_t>{0, 1}));
}

TEST(SplitByWeight, CapacityWeightsNeverOverfill)
{
    // Integer capacities as weights and count <= total capacity: no
    // share exceeds its server's capacity, so no overflow pass is
    // needed after the split.
    const std::vector<std::vector<double>> fleets = {
        {16.0, 16.0, 16.0},
        {16.0, 0.0, 8.0, 32.0},
        {1.0, 2.0, 3.0, 5.0, 7.0, 11.0},
        {16.0, 16.0, 0.0, 16.0, 16.0, 16.0, 0.0},
    };
    for (const std::vector<double> &capacity : fleets) {
        uint64_t total = 0;
        for (double c : capacity)
            total += uint64_t(c);
        for (uint64_t count = 0; count <= total; ++count) {
            const std::vector<uint64_t> shares =
                splitByWeight(count, capacity);
            for (size_t i = 0; i < capacity.size(); ++i) {
                EXPECT_LE(double(shares[i]), capacity[i])
                    << "count " << count << " server " << i;
            }
        }
    }
}

TEST(Placement, PolicyNames)
{
    EXPECT_STREQ(placementPolicyName(PlacementPolicy::Consolidate),
                 "consolidate");
    EXPECT_STREQ(placementPolicyName(PlacementPolicy::LoadlineBorrow),
                 "loadline-borrow");
}

} // namespace
} // namespace agsim::core
