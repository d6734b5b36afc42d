/**
 * @file
 * Exact percentile estimation over a stored sample set.
 *
 * The QoS path (WebSearch p90 tail latency, Fig. 17) needs percentiles over
 * bounded windows — PercentileTracker stores the window exactly. Unbounded
 * or sharded streams use the mergeable stats::QuantileSketch instead.
 */

#ifndef AGSIM_STATS_PERCENTILE_H
#define AGSIM_STATS_PERCENTILE_H

#include <cstddef>
#include <vector>

namespace agsim::stats {

/**
 * Exact percentile tracker over all added samples.
 *
 * Stores samples; percentile() sorts lazily (amortised: re-sorts only when
 * new samples arrived since the last query). Uses linear interpolation
 * between order statistics (the "linear" / type-7 quantile definition).
 */
class PercentileTracker
{
  public:
    /** Add one sample. */
    void add(double x);

    /**
     * Fold another tracker's samples into this one. Exact: the merged
     * tracker answers every percentile query as if both streams had
     * been added to it directly (order never matters).
     */
    void merge(const PercentileTracker &other);

    /** Number of stored samples. */
    size_t count() const { return samples_.size(); }

    /** Whether no samples are stored. */
    bool empty() const { return samples_.empty(); }

    /**
     * Interpolated percentile.
     * @param p Percentile in [0, 100].
     * @return 0 when empty.
     */
    double percentile(double p) const;

    /** Remove all samples. */
    void clear();

    /** Read-only access to the (unsorted) samples. */
    const std::vector<double> &samples() const { return samples_; }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

} // namespace agsim::stats

#endif // AGSIM_STATS_PERCENTILE_H
