/**
 * @file
 * The benchmark's workloads and what one run of them reports.
 *
 * A run executes whole rounds of one workload until its time budget is
 * spent. A round is a fixed amount of work: one complete traffic
 * episode of a fleet service, or one complete figure sweep. Every
 * round is checked; the run's result holds the raw samples that the
 * end-to-end metrics are computed from and, in a traced run, the
 * per-layer metrics.
 */

#ifndef AGBENCH_WORKLOADS_H
#define AGBENCH_WORKLOADS_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "chip/chip.h"
#include "common/units.h"
#include "spans.h"

namespace agbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Time budget of the measured rounds (host seconds). */
    double seconds = 10.0;
    /** Traced run: per-layer metrics, spans, profiling timers. */
    bool traced = false;
};

struct RunReport
{
    /** Operations attempted and failed (threw or failed a check). */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Round-level and replay checks that failed. */
    std::vector<std::string> checkFailures;

    /** Host milliseconds of each untraced operation. */
    std::vector<double> opMs;
    /** Simulated chip-ticks per host second of each round's timed phase. */
    std::vector<double> roundChipStepsPerS;
    /** Process CPU seconds of each round's timed phase. */
    std::vector<double> roundCpuS;
    /** Host seconds of each round's set-up. */
    std::vector<double> setupS;

    /** Per-layer metrics (traced run only). */
    std::map<std::string, double> layer;

    void check(bool ok, const std::string &what)
    {
        if (!ok) {
            std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
            checkFailures.push_back(what);
        }
    }
};

/** Splitmix64: derives independent input seeds from --seed. */
inline uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Host ns per chip-step of each public step phase: the median over
 * `ticks` of one phase's sweep across `chips`, divided by their count.
 */
struct PhaseNs
{
    double sense = 0.0;
    double control = 0.0;
    double commit = 0.0;
};
PhaseNs timeStepPhases(const std::vector<agsim::chip::Chip *> &chips,
                       int64_t ticks, agsim::Seconds dt,
                       SpanRecorder &spans);

/** Sum of a labelled registry timer's nanoseconds over sockets 0..1. */
double socketTimerNs(const char *name);

/** Sum of a labelled registry counter over sockets 0..1. */
double socketCounter(const char *name);

/** Every per-layer metric a traced run reports, zero-initialised. */
void declareLayerMetrics(RunReport &report);

bool isServiceWorkload(const std::string &name);
void runService(const RunOptions &options, RunReport &report,
                SpanRecorder &spans);
void runSweep(const RunOptions &options, RunReport &report,
              SpanRecorder &spans);

} // namespace agbench

#endif // AGBENCH_WORKLOADS_H
