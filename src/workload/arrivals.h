/**
 * @file
 * Open-loop arrival processes for the continuous fleet service.
 *
 * Every figure bench drives the simulator closed-loop: a fixed thread
 * pool runs until a duration elapses. A datacenter serves *open-loop*
 * traffic — queries arrive whether or not capacity is ready — so the
 * fleet service (system::FleetService, docs/FLEET_SERVICE.md) needs an
 * arrival-rate model it can ask, every control quantum, "how many
 * queries landed in [t, t+dt)?".
 *
 * Four traffic shapes cover the scenarios the service benches run:
 *
 *  - Steady:     homogeneous Poisson at `baseRatePerSec` — the
 *                calibration baseline.
 *  - Diurnal:    rate modulated by a day-curve (a raised cosine with
 *                trough-to-peak swing `diurnalAmplitude`, optionally
 *                replaced by a piecewise trace of per-phase
 *                multipliers) with period `diurnalPeriod`. Real
 *                billion-user services sweep ~2x between 4 am and
 *                8 pm; the sim compresses the day into seconds.
 *  - Mmpp:       2-state Markov-modulated Poisson (calm <-> burst).
 *                Bursts multiply the rate by `burstMultiplier`;
 *                state holding times are exponential with the
 *                configured means. Models flash sales, retry storms,
 *                cache-stampede bursts.
 *  - FlashCrowd: deterministic ramp — base rate until `flashStart`,
 *                linear climb over `flashRise` to base *
 *                `flashMultiplier`, hold for `flashHold`, linear
 *                decay over `flashDecay` back to base. The scripted
 *                overload every soak scenario and the smoke CI job
 *                key their SLO assertions to.
 *
 * Determinism contract: draws consume one private Rng stream in
 * arrival order, on the control thread only, so the sequence of
 * per-step counts is a pure function of (config, seed, step
 * sequence) — identical for `threads=1` and `threads=N` fleet
 * execution and unaffected by telemetry/trace being on or off
 * (tests/test_arrivals.cc pins both properties).
 */

#ifndef AGSIM_WORKLOAD_ARRIVALS_H
#define AGSIM_WORKLOAD_ARRIVALS_H

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/units.h"

namespace agsim::workload {

/** Traffic shape selector. */
enum class ArrivalKind
{
    Steady,
    Diurnal,
    Mmpp,
    FlashCrowd,
};

/** Stable lowercase shape name (bench options, stream schema). */
const char *arrivalKindName(ArrivalKind kind);

/** Parse a shape name ("steady", "diurnal", "mmpp", "flash"). */
ArrivalKind arrivalKindFromName(const std::string &name);

/** Arrival-process tunables. */
struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Steady;
    /** Mean fleet-wide query rate at the base operating point. */
    double baseRatePerSec = 1000.0;
    /** RNG seed for the count draws (and MMPP state flips). */
    uint64_t seed = 0xA221'7A1Bu;

    /** Diurnal: one compressed "day". */
    Seconds diurnalPeriod = Seconds{20.0};
    /**
     * Diurnal: fractional swing around the base rate; 0.5 sweeps
     * 0.5x..1.5x across the day (trough at t=0).
     */
    double diurnalAmplitude = 0.5;

    /** MMPP: burst-state rate multiplier (>= 1). */
    double burstMultiplier = 4.0;
    /** MMPP: mean holding time of the calm state. */
    Seconds calmMeanDuration = Seconds{2.0};
    /** MMPP: mean holding time of the burst state. */
    Seconds burstMeanDuration = Seconds{0.5};

    /** FlashCrowd: ramp start. */
    Seconds flashStart = Seconds{5.0};
    /** FlashCrowd: climb duration (base -> peak). */
    Seconds flashRise = Seconds{2.0};
    /** FlashCrowd: time at peak. */
    Seconds flashHold = Seconds{5.0};
    /** FlashCrowd: decay duration (peak -> base). */
    Seconds flashDecay = Seconds{3.0};
    /** FlashCrowd: peak rate multiplier (>= 1). */
    double flashMultiplier = 6.0;

    /** Reject nonsensical values with a descriptive ConfigError. */
    void validate() const;
};

/**
 * Deterministic open-loop arrival source. Control-thread only: the
 * fleet service draws once per control quantum, between shard sweeps.
 */
class ArrivalProcess
{
  public:
    explicit ArrivalProcess(const ArrivalConfig &config = ArrivalConfig());

    const ArrivalConfig &config() const { return config_; }

    /**
     * The instantaneous expected rate at sim time t (queries/sec).
     * Pure for every kind except Mmpp, where it reflects the current
     * modulation state (advanced by draw()).
     */
    double rate(Seconds t) const;

    /**
     * Draw the arrival count for the step [t, t+dt): advances any
     * modulation state across the step, then draws Poisson with the
     * step's mean offered work. Steps must be presented in
     * monotonically non-decreasing t order.
     */
    uint64_t draw(Seconds t, Seconds dt);

    /** Total arrivals drawn so far. */
    uint64_t totalDrawn() const { return totalDrawn_; }

    /** Whether the MMPP modulation is currently in the burst state. */
    bool bursting() const { return bursting_; }

    /** Rewind to the initial state (same seed -> same sequence). */
    void reset();

  private:
    /** Deterministic rate multiplier at time t (non-MMPP kinds). */
    double shapeMultiplier(Seconds t) const;

    ArrivalConfig config_;
    Rng rng_;
    bool bursting_ = false;
    /** Sim time the current MMPP state expires. */
    Seconds stateUntil_ = Seconds{0.0};
    bool stateDrawn_ = false;
    uint64_t totalDrawn_ = 0;
};

} // namespace agsim::workload

#endif // AGSIM_WORKLOAD_ARRIVALS_H
