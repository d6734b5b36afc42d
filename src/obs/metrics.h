/**
 * @file
 * Typed, labeled metric registry for the simulator control stack.
 *
 * Components register their instruments once (at construction time, a
 * string-keyed lookup under a mutex) and receive stable handles they
 * update allocation-free on the hot path:
 *
 *  - Counter:   monotonically increasing int64, one relaxed atomic add
 *               per update (~1 ns; safe across BatchRunner workers);
 *  - Gauge:     last-written double (atomic store);
 *  - HistogramMetric: stats::Histogram behind a mutex, for low-rate
 *               distributions (task wall times, not per-step values);
 *  - TimerStat: a (calls, ns) counter pair fed by obs::ScopedTimer.
 *
 * Identity is name plus sorted labels, Prometheus-style: asking twice
 * for `chip.steps{socket=0}` returns the same cell, so counters from
 * parallel batch tasks aggregate instead of colliding. All updates are
 * commutative, which keeps snapshots independent of worker scheduling.
 *
 * Metrics never feed back into simulation state — see
 * docs/OBSERVABILITY.md for the determinism contract.
 */

#ifndef AGSIM_OBS_METRICS_H
#define AGSIM_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "stats/histogram.h"

namespace agsim::obs {

/** Label set attached to a metric (order-insensitive). */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/** Monotonic counter; updates are lock-free relaxed atomic adds. */
class Counter
{
  public:
    void add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

    int64_t value() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<int64_t> value_{0};
};

/** Last-written value; updates are lock-free atomic stores. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const { return value_.load(std::memory_order_relaxed); }

    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Mutex-guarded fixed-bin histogram. Intended for low-rate observations
 * (per-task, per-window); per-step hot paths should use counters.
 */
class HistogramMetric
{
  public:
    HistogramMetric(double lo, double hi, size_t bins);

    void observe(double x);

    /** Consistent copy of the current distribution. */
    stats::Histogram snapshot() const;

    void reset();

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    size_t bins() const { return bins_; }

  private:
    const double lo_;
    const double hi_;
    const size_t bins_;
    mutable ag::Mutex mutex_;
    stats::Histogram histogram_ AG_GUARDED_BY(mutex_);
};

/**
 * Aggregated scope timing: invocation count plus total wall-clock
 * nanoseconds. Fed by obs::ScopedTimer; wall-clock readings live only
 * here, never in simulation state, so profiling cannot perturb a run.
 */
struct TimerStat
{
    Counter *calls = nullptr;
    Counter *nanos = nullptr;
};

/**
 * Process-wide metric registry.
 *
 * Thread-safe: registration takes a mutex, handles returned are stable
 * for the registry's lifetime (the global registry is immortal).
 */
class MetricRegistry
{
  public:
    /**
     * Default bound on distinct label sets per metric name. Long-lived
     * fleet runs mint labels from unbounded domains (server indices,
     * task ids); the cap keeps registry memory finite: once a metric
     * name holds this many series, further *new* label sets collapse
     * into one shared `name{overflow=true}` cell and each rejected
     * registration bumps `obs.dropped_series_total`.
     */
    static constexpr size_t kDefaultMaxSeriesPerMetric = 512;

    /** Get or create a counter. */
    Counter &counter(const std::string &name,
                     const MetricLabels &labels = {});

    /** Get or create a gauge. */
    Gauge &gauge(const std::string &name, const MetricLabels &labels = {});

    /**
     * Get or create a histogram. The first registration fixes the bin
     * layout; later calls with the same identity ignore lo/hi/bins.
     */
    HistogramMetric &histogram(const std::string &name, double lo,
                               double hi, size_t bins,
                               const MetricLabels &labels = {});

    /**
     * Get or create a timer (registers `<name>.calls` + `<name>.ns`).
     * The pair is admitted against the cardinality cap jointly: either
     * both cells are live series or both collapse to their overflow
     * cells, so ns-per-call ratios never mix a live half with the
     * shared overflow half.
     */
    TimerStat timer(const std::string &name,
                    const MetricLabels &labels = {});

    /**
     * Serialize every instrument as one JSON document:
     * {"counters": {...}, "gauges": {...}, "histograms": {...}}.
     */
    std::string snapshotJson() const;

    /** Zero every value (handles stay valid); for tests and benches. */
    void resetValues();

    /**
     * Set the per-metric-name series cap (0 = unbounded). Takes effect
     * for new registrations only; existing cells are never evicted, so
     * handles stay valid.
     */
    void setMaxSeriesPerMetric(size_t cap);

    /**
     * Registrations rejected by the cardinality cap so far (the live
     * value of the `obs.dropped_series_total` counter).
     */
    int64_t droppedSeries() const;

    /** Canonical identity: `name{k=v,...}` with labels sorted by key. */
    static std::string key(const std::string &name,
                           const MetricLabels &labels);

  private:
    /** Whether a *new* series for `name` may register, and commit it. */
    bool admitSeriesLocked(const std::string &name) AG_REQUIRES(mutex_);

    /** Probe-only variant: no budget commit, no drop accounting. */
    bool canAdmitSeriesLocked(const std::string &name) const
        AG_REQUIRES(mutex_);

    /** Get or create the counter cell for an exact series key. */
    Counter &counterCellLocked(const std::string &key) AG_REQUIRES(mutex_);

    /** The shared overflow label set rejected series collapse into. */
    static MetricLabels overflowLabels();

    mutable ag::Mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_
        AG_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<Gauge>> gauges_
        AG_GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_
        AG_GUARDED_BY(mutex_);
    /** Distinct series registered per metric name (all instrument kinds). */
    std::map<std::string, size_t> seriesPerName_ AG_GUARDED_BY(mutex_);
    size_t maxSeriesPerMetric_ AG_GUARDED_BY(mutex_) =
        kDefaultMaxSeriesPerMetric;
    Counter droppedSeries_;
};

} // namespace agsim::obs

#endif // AGSIM_OBS_METRICS_H
