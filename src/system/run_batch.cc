#include "system/run_batch.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <thread>

#include "common/error.h"
#include "fault/fault_injector.h"
#include "obs/observability.h"
#include "system/steal_pool.h"

namespace agsim::system {

namespace {

/**
 * Closes the task's trace timeline on every exit path: a throwing
 * task would otherwise leave an orphan TaskBegin with no TaskEnd, so
 * trace consumers would see it as still running; the guard emits an
 * error-tagged TaskEnd instead.
 */
class TaskEndGuard
{
  public:
    explicit TaskEndGuard(const std::string &label) : label_(label) {}

    ~TaskEndGuard()
    {
        if (finished_ || !obs::tracingEnabled())
            return;
        obs::TraceEvent end;
        end.kind = obs::TraceKind::TaskEnd;
        end.detail = "error:" + label_;
        obs::emit(std::move(end));
    }

    /** The normal TaskEnd was emitted; stand down. */
    void finish() { finished_ = true; }

    TaskEndGuard(const TaskEndGuard &) = delete;
    TaskEndGuard &operator=(const TaskEndGuard &) = delete;

  private:
    std::string label_;
    bool finished_ = false;
};

} // namespace

BatchResult
runBatchTask(const BatchTask &task)
{
    fatalIf(task.jobs.empty(), "batch task needs at least one job");

    // Lifecycle events carry the thread-local task id set by the
    // runner (or 0 when called directly), so parallel tasks' timelines
    // stay separable in the exported trace.
    if (obs::tracingEnabled()) {
        obs::TraceEvent begin;
        begin.kind = obs::TraceKind::TaskBegin;
        begin.detail = task.label;
        obs::emit(std::move(begin));
    }
    TaskEndGuard endGuard(task.label);

    // Wall-clock feeds only the reported wallTime observability field,
    // never simulation state (docs/OBSERVABILITY.md determinism note).
    // lint: allow(determinism): wall-time profiling of the task harness
    const auto start = std::chrono::steady_clock::now();

    // Injectors are declared before the Server so they outlive every
    // Chip::step() during destruction.
    std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
    Server server(task.serverConfig);
    server.setMode(task.mode);
    for (const auto &[socket, plan] : task.faultPlans) {
        fatalIf(socket >= server.socketCount(),
                "fault plan targets a socket the server does not have");
        injectors.push_back(std::make_unique<fault::FaultInjector>(
            plan, server.chip(socket).coreCount()));
        server.chip(socket).attachFaultInjector(injectors.back().get());
    }

    WorkloadSimulation sim(&server);
    for (const auto &job : task.jobs)
        sim.addJob(job);
    for (const auto &[socket, core] : task.gatedCores)
        sim.gateCore(socket, core);

    BatchResult result;
    result.label = task.label;
    result.metrics = sim.run(task.simConfig);

    result.finalCoreFrequency.resize(server.socketCount());
    result.finalHealth.resize(server.socketCount());
    for (size_t s = 0; s < server.socketCount(); ++s) {
        const chip::Chip &c = server.chip(s);
        result.finalCoreFrequency[s].resize(c.coreCount());
        for (size_t core = 0; core < c.coreCount(); ++core)
            result.finalCoreFrequency[s][core] = c.coreFrequency(core);
        result.finalHealth[s] = c.healthView();
    }

    // Detach before the injectors go out of scope (declaration order
    // already guarantees safety; this keeps the chips consistent).
    for (const auto &[socket, plan] : task.faultPlans)
        server.chip(socket).attachFaultInjector(nullptr);

    // lint: allow(determinism): wall-time profiling of the task harness
    const auto elapsed = std::chrono::steady_clock::now() - start;
    result.wallTime =
        Seconds{std::chrono::duration<double>(elapsed).count()};

    obs::registry().counter("batch.tasks").add();
    obs::registry()
        .histogram("batch.task_wall_ms", 0.0, 60e3, 120)
        .observe(result.wallTime.value() * 1e3);
    if (obs::tracingEnabled()) {
        obs::TraceEvent end;
        end.kind = obs::TraceKind::TaskEnd;
        end.duration = task.simConfig.warmup + result.metrics.executionTime;
        end.a = result.wallTime.value();
        end.detail = task.label;
        obs::emit(std::move(end));
    }
    endGuard.finish();
    return result;
}

size_t
BatchRunner::hardwareWorkers()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : size_t(n);
}

std::vector<BatchResult>
BatchRunner::runAll(std::vector<BatchTask> tasks, size_t workers)
{
    // One sweep over task indices; each task's exception lands in its
    // own slot so every task runs before the first failure rethrows.
    std::vector<BatchResult> results(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());
    const StealPool::TaskFn runOne = [&](size_t, size_t i) {
        try {
            obs::TaskIdScope scope{int32_t(i)};
            results[i] = runBatchTask(tasks[i]);
        } catch (...) {
            errors[i] = std::current_exception();
            obs::registry().counter("batch.task_failures").add();
        }
    };
    if (workers == 0)
        workers = hardwareWorkers();
    workers = std::min(workers, tasks.size());
    if (workers <= 1) {
        for (size_t i = 0; i < tasks.size(); ++i)
            runOne(0, i);
    } else {
        StealPool pool(workers);
        pool.sweep(tasks.size(), runOne);
    }
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace agsim::system
