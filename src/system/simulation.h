/**
 * @file
 * Workload-driven simulation engine and run metrics.
 *
 * WorkloadSimulation binds jobs (a benchmark plus a thread placement) to
 * a Server, then advances the platform at a 1 ms step: each step it
 * evaluates every thread's instruction rate at its core's *current*
 * frequency (so overclocking feeds straight back into throughput),
 * programs the per-core loads, steps the electrical/control models, and
 * integrates energy and work.
 *
 * Two measurement styles cover the paper's experiments:
 *  - run-to-completion (PARSEC/SPLASH-2): measures execution time, energy
 *    and EDP for a fixed amount of work (Figs. 3, 4);
 *  - fixed-duration rate measurement (SPECrate, colocation studies):
 *    measures mean power, frequency and throughput over a window
 *    (Figs. 10, 14, 15, 16).
 */

#ifndef AGSIM_SYSTEM_SIMULATION_H
#define AGSIM_SYSTEM_SIMULATION_H

#include <string>
#include <vector>

#include "chip/core_load.h"
#include "pdn/decomposition.h"
#include "system/server.h"
#include "workload/threaded_workload.h"

namespace agsim::system {

/** Where one thread runs. */
struct ThreadPlacement
{
    size_t socket = 0;
    size_t core = 0;
};

/** One scheduled job: a workload plus its thread placement. */
struct Job
{
    workload::ThreadedWorkload work;
    std::vector<ThreadPlacement> placement;
    std::string label;
};

/** Simulation control knobs. */
struct SimulationConfig
{
    /** Engine step. */
    Seconds dt = Seconds{1e-3};
    /**
     * Warm-up before measurement: loads applied, firmware walking,
     * thermal settling; energy/work counters reset afterwards.
     * Undervolting needs ~0.7 s to walk the guardband down.
     */
    Seconds warmup = Seconds{1.2};
    /** Hard wall-clock cap on the measured phase. */
    Seconds maxDuration = Seconds{600.0};
    /**
     * Fixed-duration rate measurement when > 0; otherwise the run ends
     * when the first job completes its work.
     */
    Seconds measureDuration = Seconds{0.0};
};

/** Per-job outcome. */
struct JobMetrics
{
    std::string label;
    /** Instructions retired during measurement. */
    Instructions instructions;
    /** Mean aggregate instruction rate (instructions/s). */
    InstrPerSec meanRate = InstrPerSec{0.0};
    /** Whether the job's total work completed within the run. */
    bool completed = false;
    /** Time at which the work completed (measured phase clock). */
    Seconds completionTime = Seconds{0.0};
};

/** Whole-run outcome. */
struct RunMetrics
{
    /** Length of the measured phase. */
    Seconds executionTime = Seconds{0.0};
    /** Mean Vdd power per socket. */
    std::vector<Watts> socketPower;
    /** Sum of socket means. */
    Watts totalChipPower = Watts{0.0};
    /** Vdd energy of all sockets over the measured phase. */
    Joules chipEnergy = Joules{0.0};
    /** Energy-delay product (J * s). */
    Mul<Joules, Seconds> edp;
    /** Time-weighted mean frequency across active cores. */
    Hertz meanFrequency = Hertz{0.0};
    /** Time-weighted min frequency across active cores. */
    Hertz minFrequency = Hertz{0.0};
    /** Mean undervolt per socket (static setpoint minus programmed). */
    std::vector<Volts> socketUndervolt;
    /** Mean VRM setpoint per socket. */
    std::vector<Volts> socketSetpoint;
    /** Mean drop decomposition seen by socket 0 core 0. */
    pdn::DropDecomposition meanDecomposition;
    /** Mean total chip MIPS (all jobs, both sockets), in MIPS units. */
    double meanChipMips = 0.0;
    /** Per-job details. */
    std::vector<JobMetrics> jobs;
};

/**
 * The engine.
 */
class WorkloadSimulation
{
  public:
    /**
     * @param server Platform (not owned; must outlive the simulation).
     */
    explicit WorkloadSimulation(Server *server);

    /**
     * Add a job. Placements must name distinct (socket, core) pairs
     * across all jobs.
     */
    void addJob(Job job);

    /**
     * Power-gate a core for the duration of the run (loadline borrowing
     * gates the unused cores). Cores running threads cannot be gated.
     */
    void gateCore(size_t socket, size_t core);

    /** Run the experiment and return metrics. */
    RunMetrics run(const SimulationConfig &config = SimulationConfig());

    /** Jobs added so far. */
    const std::vector<Job> &jobs() const { return jobs_; }

  private:
    /**
     * Program every core's CoreLoad from the job placements, applying
     * each job's phase scaling at time t since run start.
     */
    void applyLoads(Seconds t);

    /** Whether any job carries execution phases. */
    bool anyPhased() const;

    /** Per-thread work retired by one job this step. */
    Instructions stepJobProgress(size_t jobIndex, Seconds t, Seconds dt);

    /** Threads (from any job) active on a socket. */
    size_t activeThreadsOnSocket(size_t socket) const;

    Server *server_;
    std::vector<Job> jobs_;
    std::vector<std::pair<size_t, size_t>> gated_;
    std::vector<Instructions> progress_;
};

/**
 * Convenience: evenly place `threads` threads of a job onto one socket,
 * cores [0, threads).
 */
std::vector<ThreadPlacement> placeOnSocket(size_t socket, size_t threads);

} // namespace agsim::system

#endif // AGSIM_SYSTEM_SIMULATION_H
