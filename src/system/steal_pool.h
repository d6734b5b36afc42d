/**
 * @file
 * Persistent work-stealing task pool: the one executor for parallel
 * work in the tree.
 *
 * Two kinds of work run on it. FleetStepper sweeps chip shards once
 * per tick block (threads > 1), and BatchRunner::runAll sweeps
 * over independent experiment tasks (workers > 1). No switch
 * selects it: FleetStepperConfig::stealing has no effect and is kept
 * only because the agbench/ harness still assigns it. Both are
 * barriers of mutually independent tasks whose cost can be wildly
 * non-uniform: under sampled fast-forward a quiescent shard is ~100x
 * cheaper than one riding a droop storm, and figure sweeps mix runs of
 * very different lengths. A long-lived service would also pay thread
 * spawn/join on every control quantum if workers were not persistent.
 *
 * StealPool keeps one set of parked worker threads for the life of the
 * owner and executes "sweeps": a batch of identically-shaped tasks
 * distributed into per-worker deques as contiguous chunks (locality),
 * drained from the front by the deque's own worker and stolen
 * half-at-a-time from the back by idle workers. A sweep is a barrier:
 * sweep() returns only after every task ran, which is what makes the
 * virtual-time semantics of the fleet loop hold (no shard can be at
 * tick-block N+1 while another is still at N).
 *
 * Determinism: tasks are mutually independent by contract (fleet
 * shards touch disjoint chip state and park telemetry samples in their
 * own chips' slots; batch tasks build private servers), so the
 * assignment of tasks to workers — the only thing stealing randomizes
 * — cannot change any result.
 * Exact-mode fleet sweeps and batch sweeps are bit-identical at any
 * thread count (tests/test_fleet_stepper.cc, tests/test_run_batch.cc,
 * tests/test_fleet_service.cc).
 *
 * Sweep handshake: sweep() publishes the tasks, the body and the new
 * generation in one critical section (lock order: mutex_, then a deque
 * mutex), so a worker can only ever find a sweep's tasks together with
 * that sweep's body. A worker joins a sweep under mutex_ (reading the
 * body and counting itself in holders_) and leaves it under mutex_;
 * sweep() returns only when every task finished *and* every worker
 * that joined has left, so no worker still holds the body of a sweep
 * that returned. A worker that wakes after its sweep already finished
 * finds the body reset to null and goes back to waiting.
 *
 * Memory ordering: all handoff (generation start, joins, completion
 * count) happens under one mutex, and task transfer happens under the
 * per-deque mutexes, so every task's effects happen-before sweep()
 * returns, and sweep() N's effects happen-before sweep N+1's tasks —
 * the chain that lets a telemetry lane change its writer thread
 * between barriers without a data race.
 */

#ifndef AGSIM_SYSTEM_STEAL_POOL_H
#define AGSIM_SYSTEM_STEAL_POOL_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"

namespace agsim::system {

/**
 * Persistent pool of parked workers executing barrier sweeps of
 * independent tasks with per-worker deques and steal-half balancing.
 */
class StealPool
{
  public:
    /** fn(worker, task): worker is stable in [0, threadCount). */
    using TaskFn = std::function<void(size_t worker, size_t task)>;

    /** Spawns `threads` parked workers (must be >= 1). */
    explicit StealPool(size_t threads);

    /** Joins the workers (any in-flight sweep must have returned). */
    ~StealPool();

    StealPool(const StealPool &) = delete;
    StealPool &operator=(const StealPool &) = delete;

    size_t threadCount() const { return workers_.size(); }

    /**
     * Run fn(worker, task) for every task in [0, taskCount); returns
     * when all have finished. Tasks must be mutually independent.
     * Control-thread only; sweeps never overlap.
     */
    AG_CONTROL_THREAD
    void sweep(size_t taskCount, const TaskFn &fn);

    /** Steal operations across the pool's lifetime (telemetry). */
    int64_t steals() const
    {
        return steals_.load(std::memory_order_relaxed);
    }

    /** Barrier sweeps completed. */
    int64_t sweeps() const { return sweeps_; }

    /** Called on a worker with its index; see setWakeHookForTest. */
    using WakeHook = std::function<void(size_t worker)>;

    /**
     * Test seam: run `hook` on a worker right after it joins a sweep
     * and before it takes a task, outside every pool lock, so a test
     * can stall a worker and force a late-wake interleaving. Empty
     * (the default) is a no-op. Call only between sweeps.
     */
    AG_CONTROL_THREAD
    void setWakeHookForTest(WakeHook hook);

  private:
    /** One worker's deque; the owner pops the front, thieves the back. */
    struct WorkerDeque
    {
        ag::Mutex mutex;
        std::deque<size_t> tasks AG_GUARDED_BY(mutex);
    };

    void workerLoop(size_t self);

    /** Pop the next task from self's own deque front. */
    bool popOwn(size_t self, size_t &task);

    /**
     * Steal the back half of the first non-empty victim's deque into
     * self's deque and pop one task from it.
     */
    bool stealInto(size_t self, size_t &task);

    std::vector<std::unique_ptr<WorkerDeque>> deques_;
    std::vector<std::thread> workers_;

    ag::Mutex mutex_;
    ag::CondVar workCv_;
    ag::CondVar doneCv_;
    /** Bumped per sweep; workers wake when it moves. */
    uint64_t generation_ AG_GUARDED_BY(mutex_) = 0;
    /** Tasks not yet finished in the current sweep. */
    size_t tasksLeft_ AG_GUARDED_BY(mutex_) = 0;
    /** Workers that joined the current sweep and have not left it. */
    size_t holders_ AG_GUARDED_BY(mutex_) = 0;
    /** The sweep's task body; null between sweeps. */
    const TaskFn *fn_ AG_GUARDED_BY(mutex_) = nullptr;
    WakeHook wakeHook_ AG_GUARDED_BY(mutex_);
    bool shutdown_ AG_GUARDED_BY(mutex_) = false;

    std::atomic<int64_t> steals_{0};
    int64_t sweeps_ = 0;
};

} // namespace agsim::system

#endif // AGSIM_SYSTEM_STEAL_POOL_H
