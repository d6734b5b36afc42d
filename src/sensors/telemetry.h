/**
 * @file
 * AMESTER-like telemetry: 32 ms windowed sensor sampling.
 *
 * The paper reads all sensors through IBM AMESTER at a service-processor-
 * limited 32 ms interval, in two CPM modes (Sec. 4.1):
 *  - *sample mode*: an instantaneous CPM snapshot (characterizes normal
 *    operation / typical-case noise);
 *  - *sticky mode*: the worst (smallest) CPM value seen during the past
 *    window (captures worst-case droops).
 * This layer reproduces those semantics over the simulated sensors, plus
 * the Vdd-rail power and VRM current sensors used in Sec. 3/4.
 *
 * The window in progress is a Telemetry::State the caller owns (a chip
 * keeps it in its ChipState, so a checkpoint carries it); Telemetry
 * itself keeps its parameters and the completed windows, the history a
 * restarted server loses.
 */

#ifndef AGSIM_SENSORS_TELEMETRY_H
#define AGSIM_SENSORS_TELEMETRY_H

#include <cstddef>
#include <vector>

#include "common/units.h"
#include "pdn/decomposition.h"

namespace agsim::sensors {

/** Telemetry configuration. */
struct TelemetryParams
{
    /** Sensor aggregation window (AMESTER minimum: 32 ms). */
    Seconds windowLength = Seconds{32e-3};
    /**
     * Keep at most this many completed windows (0 = unbounded).
     *
     * Memory: each window stores four per-core vectors, so a chip
     * costs roughly 100 bytes x coreCount per window — about 30 KB per
     * simulated second at the default 32 ms window on an 8-core chip.
     * The unbounded default suits the figure benches (they read the
     * whole run's windows afterwards); long-lived or soak runs should
     * bound this, at which point the store becomes a ring: once full,
     * the oldest window is evicted per new window, and latest() /
     * windows() only see the most recent maxWindows entries.
     */
    size_t maxWindows = 0;
};

/** Everything the platform exposes to telemetry for one step. */
struct StepObservation
{
    /** Instantaneous per-core CPM reading (sample mode source). */
    std::vector<int> sampleCpm;
    /** Worst per-core CPM value during the step (sticky mode source). */
    std::vector<int> stickyCpm;
    /** Per-core on-chip voltage (model ground truth, for validation). */
    std::vector<Volts> coreVoltage;
    /** Per-core clock frequency. */
    std::vector<Hertz> coreFrequency;
    /** Chip Vdd-rail power. */
    Watts chipPower = Watts{0.0};
    /** VRM output current on this chip's rail. */
    Amps railCurrent = Amps{0.0};
    /** VRM setpoint. */
    Volts setpoint = Volts{0.0};
    /** Drop decomposition this step (core 0 view). */
    pdn::DropDecomposition decomposition;
    /** Cores whose effective voltage fell below vmin this step. */
    int timingEmergencies = 0;
    /** Safety-monitor demotion events this step (0 or 1). */
    int safetyDemotions = 0;
    /** Safety-monitor re-arm events this step (0 or 1). */
    int safetyRearms = 0;
    /** Worst true timing margin across non-gated cores (volts). */
    Volts worstMargin = Volts{0.0};
};

/** One completed 32 ms telemetry window. */
struct TelemetryWindow
{
    /** Window end time. */
    Seconds time = Seconds{0.0};
    /** Last sample-mode CPM value per core. */
    std::vector<int> sampleCpm;
    /** Minimum (sticky) CPM value per core over the window. */
    std::vector<int> stickyCpm;
    /** Mean per-core on-chip voltage. */
    std::vector<Volts> meanCoreVoltage;
    /** Mean per-core frequency. */
    std::vector<Hertz> meanCoreFrequency;
    /** Mean chip power. */
    Watts meanChipPower = Watts{0.0};
    /** Mean rail current. */
    Amps meanRailCurrent = Amps{0.0};
    /** Mean VRM setpoint. */
    Volts meanSetpoint = Volts{0.0};
    /** Mean drop decomposition. */
    pdn::DropDecomposition meanDecomposition;
    /** Timing emergencies accumulated over the window. */
    long emergencyCount = 0;
    /** Safety-monitor demotions over the window. */
    long demotionCount = 0;
    /** Safety-monitor re-arms over the window. */
    long rearmCount = 0;
    /** Worst true timing margin seen during the window (volts). */
    Volts worstMargin = Volts{0.0};
};

/**
 * Windowed sensor aggregator for one chip.
 */
class Telemetry
{
  public:
    /** The window in progress: the clock and every accumulator. */
    struct State
    {
        Seconds now = Seconds{0.0};
        Seconds windowElapsed = Seconds{0.0};
        std::vector<int> lastSample;
        std::vector<int> stickyMin;
        // Time-weighted accumulators: quantity x seconds, so the mean
        // falls out with the right dimension at window close (e.g.
        // W*s / s -> W).
        std::vector<Mul<Volts, Seconds>> voltageSum;
        std::vector<double> frequencySum; // Hz*s is dimensionless (cycles)
        Joules powerSum = Joules{0.0};
        Mul<Amps, Seconds> currentSum{};
        Mul<Volts, Seconds> setpointSum{};
        pdn::DropDecomposition decompositionSum;
        Seconds weightSum = Seconds{0.0};
        long emergencySum = 0;
        long demotionSum = 0;
        long rearmSum = 0;
        Volts marginMin = Volts{0.0};
        bool marginSeen = false;

        bool operator==(const State &) const = default;
    };

    explicit Telemetry(size_t coreCount,
                       const TelemetryParams &params = TelemetryParams());

    /** An empty window at time zero, sized for this chip's cores. */
    State initialState() const;

    /** Feed one simulation step of duration dt into `state`. */
    void step(State &state, const StepObservation &obs, Seconds dt);

    /** Completed windows so far (oldest first). */
    const std::vector<TelemetryWindow> &windows() const { return windows_; }

    /** Most recent completed window. */
    const TelemetryWindow &latest() const;

    /** Whether at least one window completed. */
    bool hasWindows() const { return !windows_.empty(); }

    /** Drop all completed windows (the window in progress is kept). */
    void clearWindows();

    const TelemetryParams &params() const { return params_; }

  private:
    void closeWindow(State &state);

    TelemetryParams params_;
    size_t coreCount_;
    std::vector<TelemetryWindow> windows_;
};

} // namespace agsim::sensors

#endif // AGSIM_SENSORS_TELEMETRY_H
