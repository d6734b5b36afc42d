/**
 * @file
 * Declarative SLO rules with multi-window burn-rate alerting.
 *
 * A rule names a telemetry series (e.g. `qos.p99_latency`,
 * `fleet.margin_floor`, `recovery.mttr`), a threshold that defines a
 * "bad" bucket, and an error budget: the fraction of buckets allowed
 * to be bad over the long window. The engine evaluates the burn rate
 *
 *     burn = badBucketFraction / budget
 *
 * over a short and a long trailing window (Google SRE-workbook style):
 * the alert fires only when BOTH windows burn at >= the configured
 * rate — the long window proves the problem is sustained, the short
 * window proves it is still happening — and resolves once both drop
 * below 1x (budget-neutral). Fire/resolve edges are emitted as
 * TraceKind::SloAlert events into the shared trace stream (the flight
 * recorder arms on the fire events there) and returned to the caller.
 *
 * Evaluation is pull-only over merged time-series buckets; the engine
 * holds no references into simulation state and never feeds back.
 */

#ifndef AGSIM_OBS_TELEMETRY_SLO_H
#define AGSIM_OBS_TELEMETRY_SLO_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/telemetry/time_series.h"

namespace agsim::obs::telemetry {

/** One declarative SLO rule over a named telemetry series. */
struct SloRule
{
    /** Rule name used in alert events ("fire:<name>"). */
    std::string name;
    /** Telemetry series the rule watches (must be declared). */
    std::string series;
    /** Per-bucket statistic compared against the threshold. */
    BucketStat stat = BucketStat::Mean;
    /** Threshold defining a bad bucket. */
    double threshold = 0.0;
    /** true: bucket is bad when stat > threshold; false: when <. */
    bool violationIsAbove = true;
    /** Error budget: allowed bad-bucket fraction (0 < budget <= 1). */
    double budget = 0.01;
    /** Short confirmation window (still happening). */
    Seconds shortWindow = Seconds{0.05};
    /** Long sustain window (not a blip). */
    Seconds longWindow = Seconds{0.25};
    /** Fire when both windows burn at >= this multiple of budget. */
    double burnRate = 2.0;

    /** Die loudly on nonsensical rules (empty name, bad windows...). */
    void validate() const;
};

/** Live alert state for one rule (one entry per rule, stable order). */
struct SloAlertState
{
    SloRule rule;
    /** Currently firing. */
    bool active = false;
    /** Sim time of the most recent fire edge (if fireCount > 0). */
    Seconds firedAt = Seconds{0.0};
    /** Sim time of the most recent resolve edge. */
    Seconds resolvedAt = Seconds{0.0};
    /** Burn rates from the latest evaluation. */
    double shortBurn = 0.0;
    double longBurn = 0.0;
    /** Total fire edges so far. */
    uint64_t fireCount = 0;
};

/** One fire or resolve transition found by SloEngine::evaluate(). */
struct SloEdge
{
    /** The rule's state just after the edge. */
    SloAlertState state;
    /** true for a fire edge, false for a resolve edge. */
    bool fired = false;
};

/**
 * Evaluates every registered rule against caller-supplied merged
 * series. Single-threaded by design: call evaluate() between fleet
 * sweeps (the TelemetryHub does this on its sample cadence).
 */
class SloEngine
{
  public:
    /** Series lookup the caller provides at evaluation time. */
    using SeriesLookup =
        std::function<MergedSeries(const std::string &)>;

    /** Register a rule (validated; duplicate names rejected). */
    void addRule(SloRule rule);

    /**
     * Evaluate every rule at sim time `now`, emitting SloAlert trace
     * events on edges; returns those edges in rule order. Series with
     * no overlapping data leave the rule in its current state (no
     * flapping on startup).
     */
    std::vector<SloEdge> evaluate(Seconds now, const SeriesLookup &lookup);

    const std::vector<SloAlertState> &alerts() const { return alerts_; }

    /** Fire edges across all rules. */
    uint64_t totalFires() const;

    /** Rules currently firing. */
    size_t activeCount() const;

  private:
    /** Bad-bucket fraction over buckets intersecting the window. */
    static double badFraction(const MergedSeries &series,
                              const SloRule &rule, Seconds now,
                              Seconds window, bool &hasData);

    std::vector<SloAlertState> alerts_;
};

} // namespace agsim::obs::telemetry

#endif // AGSIM_OBS_TELEMETRY_SLO_H
