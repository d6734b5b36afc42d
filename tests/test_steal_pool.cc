/**
 * @file
 * StealPool tests: every task runs exactly once per sweep regardless of
 * worker count or load skew, sweeps are reusable barriers, stealing
 * actually engages under imbalance, and a worker that joins a sweep
 * late never runs the next sweep's tasks with the finished sweep's
 * body.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "system/steal_pool.h"

namespace agsim::system {
namespace {

TEST(StealPool, RunsEveryTaskExactlyOnce)
{
    for (size_t workers : {1u, 2u, 4u, 7u}) {
        StealPool pool(workers);
        const size_t tasks = 257;
        std::vector<std::atomic<int>> hits(tasks);
        for (auto &h : hits)
            h.store(0);
        pool.sweep(tasks, [&](size_t, size_t task) {
            hits[task].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t k = 0; k < tasks; ++k)
            EXPECT_EQ(hits[k].load(), 1) << "workers=" << workers
                                         << " task=" << k;
    }
}

TEST(StealPool, SweepIsABarrier)
{
    StealPool pool(4);
    std::atomic<int> running{0};
    std::atomic<int> done{0};
    pool.sweep(64, [&](size_t, size_t) {
        running.fetch_add(1);
        done.fetch_add(1);
        running.fetch_sub(1);
    });
    // sweep() returned: nothing may still be running.
    EXPECT_EQ(running.load(), 0);
    EXPECT_EQ(done.load(), 64);
}

TEST(StealPool, ReusableAcrossManySweeps)
{
    StealPool pool(3);
    std::atomic<int64_t> total{0};
    for (int round = 0; round < 50; ++round) {
        pool.sweep(31, [&](size_t, size_t task) {
            total.fetch_add(int64_t(task), std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), 50 * (31 * 30 / 2));
    EXPECT_EQ(pool.sweeps(), 50);
}

TEST(StealPool, WorkerIndexStaysInRange)
{
    StealPool pool(5);
    std::atomic<bool> bad{false};
    pool.sweep(200, [&](size_t worker, size_t) {
        if (worker >= 5)
            bad.store(true);
    });
    EXPECT_FALSE(bad.load());
}

TEST(StealPool, StealsUnderSkewedLoad)
{
    // Give the first chunk (one worker's seed range) all the expensive
    // tasks: the other workers must steal to finish them.
    StealPool pool(4);
    std::atomic<int> done{0};
    pool.sweep(64, [&](size_t, size_t task) {
        if (task < 16)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        done.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(done.load(), 64);
    EXPECT_GT(pool.steals(), 0);
}

TEST(StealPool, ZeroTasksIsANoOp)
{
    StealPool pool(2);
    pool.sweep(0, [&](size_t, size_t) { FAIL(); });
    EXPECT_EQ(pool.sweeps(), 0);
}

TEST(StealPool, MoreWorkersThanTasks)
{
    StealPool pool(8);
    std::atomic<int> done{0};
    pool.sweep(3, [&](size_t, size_t) { done.fetch_add(1); });
    EXPECT_EQ(done.load(), 3);
}

TEST(StealPool, LateWorkerNeverRunsTheNextSweepWithAStaleBody)
{
    // Worker 1 joins sweep A, then stalls in the wake seam before it
    // takes a task; worker 0 drains A alone. Sweep A must stay open
    // until worker 1 lets go of A's body. A pool that returns early
    // lets the stalled worker wake into sweep B's queued tasks still
    // holding A's body: sweep B's first task releases the stall and
    // waits for exactly that to happen.
    using namespace std::chrono_literals;
    StealPool pool(2);
    std::mutex m;
    std::condition_variable cv;
    bool joined = false;
    bool released = false;
    bool sweepAReturned = false;
    int staleCalls = 0;
    std::atomic<bool> armed{true};
    pool.setWakeHookForTest([&](size_t worker) {
        if (worker != 1 || !armed.exchange(false))
            return;
        std::unique_lock<std::mutex> lock(m);
        joined = true;
        cv.notify_all();
        cv.wait_for(lock, 200ms, [&] { return released; });
    });

    const StealPool::TaskFn bodyA = [&](size_t, size_t) {
        std::unique_lock<std::mutex> lock(m);
        cv.wait_for(lock, 2s, [&] { return joined; });
        if (sweepAReturned) {
            ++staleCalls;
            cv.notify_all();
        }
    };
    pool.sweep(2, bodyA);
    {
        std::lock_guard<std::mutex> lock(m);
        sweepAReturned = true;
        EXPECT_TRUE(joined) << "worker 1 never joined sweep A";
    }

    const size_t tasksB = 8;
    std::vector<std::atomic<int>> hitsB(tasksB);
    for (auto &h : hitsB)
        h.store(0);
    const StealPool::TaskFn bodyB = [&](size_t, size_t task) {
        hitsB[task].fetch_add(1);
        std::unique_lock<std::mutex> lock(m);
        if (!released) {
            released = true;
            cv.notify_all();
            cv.wait_for(lock, 100ms, [&] { return staleCalls > 0; });
        }
    };
    pool.sweep(tasksB, bodyB);

    std::lock_guard<std::mutex> lock(m);
    EXPECT_EQ(staleCalls, 0) << "sweep B's tasks ran with sweep A's body";
    for (size_t k = 0; k < tasksB; ++k)
        EXPECT_EQ(hitsB[k].load(), 1) << "task " << k;
    EXPECT_EQ(pool.sweeps(), 2);
}

} // namespace
} // namespace agsim::system
