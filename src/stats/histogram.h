/**
 * @file
 * Fixed-bin histogram, used for droop-depth and latency distributions.
 */

#ifndef AGSIM_STATS_HISTOGRAM_H
#define AGSIM_STATS_HISTOGRAM_H

#include <cstddef>
#include <string>
#include <vector>

namespace agsim::stats {

/**
 * Uniform-bin histogram over [lo, hi) with underflow/overflow buckets.
 */
class Histogram
{
  public:
    /**
     * @param lo Lower edge of the first bin.
     * @param hi Upper edge of the last bin (must exceed lo).
     * @param bins Number of uniform bins (>= 1).
     */
    Histogram(double lo, double hi, size_t bins);

    /** Add one sample. */
    void add(double x);

    /** Count in bin i (0-based). */
    uint64_t binCount(size_t i) const;

    /** Samples below lo. */
    uint64_t underflow() const { return underflow_; }

    /** Samples at or above hi. */
    uint64_t overflow() const { return overflow_; }

    /** Total samples including under/overflow. */
    uint64_t total() const { return total_; }

    /** Number of bins. */
    size_t bins() const { return counts_.size(); }

    /** Center value of bin i. */
    double binCenter(size_t i) const;

    /** Fraction of in-range samples at or below x (empirical CDF). */
    double cdf(double x) const;

    /** Render a compact multi-line ASCII bar view (for examples/benches). */
    std::string render(size_t width = 50) const;

  private:
    double lo_;
    double hi_;
    double binWidth_;
    std::vector<uint64_t> counts_;
    uint64_t underflow_ = 0;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
};

} // namespace agsim::stats

#endif // AGSIM_STATS_HISTOGRAM_H
