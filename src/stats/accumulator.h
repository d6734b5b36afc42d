/**
 * @file
 * Running scalar statistics (Welford online mean/variance, min/max).
 *
 * Used throughout the simulator for per-run summaries: average chip power,
 * mean undervolt amount, frequency statistics, etc.
 */

#ifndef AGSIM_STATS_ACCUMULATOR_H
#define AGSIM_STATS_ACCUMULATOR_H

#include <cstdint>
#include <limits>

namespace agsim::stats {

/**
 * Online accumulator for count / mean / variance / min / max.
 *
 * Uses Welford's algorithm so variance is numerically stable for long runs
 * (millions of 1 ms samples).
 */
class Accumulator
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Add a weighted sample (weight acts as a repeat count). */
    void addWeighted(double x, double weight);

    /** Reset to empty. */
    void reset();

    /** Number of samples (sum of weights). */
    double count() const { return weight_; }

    /** Whether any samples have been added. */
    bool empty() const { return weight_ <= 0.0; }

    /** Sample mean; 0 when empty. */
    double mean() const { return empty() ? 0.0 : mean_; }

    /** Population variance; 0 when fewer than two samples. */
    double variance() const;

    /** Population standard deviation. */
    double stddev() const;

    /** Smallest sample; +inf when empty. */
    double min() const { return min_; }

    /** Largest sample; -inf when empty. */
    double max() const { return max_; }

    /** Sum of samples. */
    double sum() const { return mean_ * weight_; }

  private:
    double weight_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

} // namespace agsim::stats

#endif // AGSIM_STATS_ACCUMULATOR_H
