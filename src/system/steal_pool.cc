#include "system/steal_pool.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace agsim::system {

StealPool::StealPool(size_t threads)
{
    panicIf(threads == 0, "steal pool needs at least one worker");
    deques_.reserve(threads);
    for (size_t w = 0; w < threads; ++w)
        deques_.push_back(std::make_unique<WorkerDeque>());
    workers_.reserve(threads);
    for (size_t w = 0; w < threads; ++w)
        workers_.emplace_back([this, w] { workerLoop(w); });
}

StealPool::~StealPool()
{
    {
        ag::MutexLock lock(mutex_);
        shutdown_ = true;
        workCv_.notify_all();
    }
    for (std::thread &worker : workers_)
        worker.join();
}

void
StealPool::setWakeHookForTest(WakeHook hook)
{
    ag::MutexLock lock(mutex_);
    wakeHook_ = std::move(hook);
}

void
StealPool::sweep(size_t taskCount, const TaskFn &fn)
{
    if (taskCount == 0)
        return;

    ag::UniqueLock lock(mutex_);
    // Tasks, body and generation go out in one critical section: a
    // worker only reaches the deques after joining under mutex_, so it
    // can never pair this sweep's tasks with another sweep's body.
    // Each worker's seed chunk is a contiguous range, so stealing only
    // kicks in when the load is actually imbalanced.
    const size_t workers = deques_.size();
    const size_t chunk = (taskCount + workers - 1) / workers;
    for (size_t w = 0; w < workers; ++w) {
        const size_t begin = std::min(taskCount, w * chunk);
        const size_t end = std::min(taskCount, begin + chunk);
        ag::MutexLock dequeLock(deques_[w]->mutex);
        for (size_t task = begin; task < end; ++task)
            deques_[w]->tasks.push_back(task);
    }
    fn_ = &fn;
    tasksLeft_ = taskCount;
    ++generation_;
    workCv_.notify_all();
    // Every task done is not enough: a worker that joined late may
    // still hold `fn` while it finds the deques empty.
    while (tasksLeft_ != 0 || holders_ != 0)
        doneCv_.wait(lock);
    fn_ = nullptr;
    ++sweeps_;
}

bool
StealPool::popOwn(size_t self, size_t &task)
{
    WorkerDeque &mine = *deques_[self];
    ag::MutexLock lock(mine.mutex);
    if (mine.tasks.empty())
        return false;
    task = mine.tasks.front();
    mine.tasks.pop_front();
    return true;
}

bool
StealPool::stealInto(size_t self, size_t &task)
{
    const size_t workers = deques_.size();
    for (size_t offset = 1; offset < workers; ++offset) {
        const size_t victim = (self + offset) % workers;
        // Take the back half under the victim's lock alone, then move
        // it into our own deque: never holding two deque locks rules
        // out thief/thief deadlock by construction.
        std::vector<size_t> loot;
        {
            WorkerDeque &theirs = *deques_[victim];
            ag::MutexLock lock(theirs.mutex);
            const size_t have = theirs.tasks.size();
            if (have == 0)
                continue;
            const size_t take = (have + 1) / 2;
            loot.assign(theirs.tasks.end() - ptrdiff_t(take),
                        theirs.tasks.end());
            theirs.tasks.erase(theirs.tasks.end() - ptrdiff_t(take),
                               theirs.tasks.end());
        }
        steals_.fetch_add(1, std::memory_order_relaxed);
        task = loot.front();
        if (loot.size() > 1) {
            WorkerDeque &mine = *deques_[self];
            ag::MutexLock lock(mine.mutex);
            mine.tasks.insert(mine.tasks.end(), loot.begin() + 1,
                              loot.end());
        }
        return true;
    }
    return false;
}

void
StealPool::workerLoop(size_t self)
{
    uint64_t seenGeneration = 0;
    for (;;) {
        const TaskFn *fn = nullptr;
        const WakeHook *hook = nullptr;
        {
            ag::UniqueLock lock(mutex_);
            // A null body means the sweep this wake-up was for already
            // finished without us: wait for the next one.
            while (!shutdown_ &&
                   (generation_ == seenGeneration || fn_ == nullptr))
                workCv_.wait(lock);
            if (shutdown_)
                return;
            seenGeneration = generation_;
            fn = fn_;
            ++holders_;
            if (wakeHook_)
                hook = &wakeHook_;
        }
        if (hook != nullptr)
            (*hook)(self);
        // Drain: own deque first, then steal. No task is added to any
        // deque while this sweep holds a joined worker, so one full
        // empty scan means the sweep has no unclaimed work left.
        size_t finished = 0;
        size_t task = 0;
        while (popOwn(self, task) || stealInto(self, task)) {
            (*fn)(self, task);
            ++finished;
        }
        ag::MutexLock lock(mutex_);
        tasksLeft_ -= finished;
        --holders_;
        if (tasksLeft_ == 0 && holders_ == 0)
            doneCv_.notify_all();
    }
}

} // namespace agsim::system
