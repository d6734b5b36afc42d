/**
 * @file
 * Fixed-interval downsampled time-series ring over simulation time.
 *
 * The streaming telemetry plane (docs/OBSERVABILITY.md §6) holds every
 * live signal — margin floors, fleet frequency, recovery state — as a
 * ring of fixed-width sim-time buckets. Each bucket aggregates the
 * samples that landed in its interval (count/sum/min/max/last), so a
 * signal's memory stays bounded for arbitrarily long runs while the
 * retained window keeps full resolution at the configured interval.
 *
 * Concurrency contract: each buffer has ONE writer, the control
 * thread. The fleet sweep parks each chip's sample in its stepper slot
 * and the control thread records the parked samples after the block
 * barrier (system::FleetStepper), so record() takes no lock and readers
 * (SLO evaluation, stream lines) never overlap a write.
 */

#ifndef AGSIM_OBS_TELEMETRY_TIME_SERIES_H
#define AGSIM_OBS_TELEMETRY_TIME_SERIES_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace agsim::obs::telemetry {

/** Aggregate of every sample that landed in one sim-time interval. */
struct TimeBucket
{
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /** The most recently recorded sample in the bucket. */
    double last = 0.0;

    void add(double v)
    {
        if (count == 0) {
            min = v;
            max = v;
        } else {
            min = v < min ? v : min;
            max = v > max ? v : max;
        }
        ++count;
        sum += v;
        last = v;
    }

    double mean() const { return count > 0 ? sum / double(count) : 0.0; }
};

/** Which scalar a bucket contributes to a statistic or SLO rule. */
enum class BucketStat
{
    Mean,
    Min,
    Max,
    Last,
    Sum,
    Count,
};

/** Extract one scalar from a bucket. */
double bucketStatValue(const TimeBucket &bucket, BucketStat stat);

/**
 * Single-writer downsampling ring: samples land in fixed sim-time
 * buckets, the newest `capacity` buckets are retained.
 */
class TimeSeriesBuffer
{
  public:
    /**
     * @param interval Bucket width in sim time (> 0).
     * @param capacity Buckets retained (>= 2).
     */
    TimeSeriesBuffer(Seconds interval, size_t capacity);

    /**
     * Record one sample at sim time t. Samples older than the retained
     * window are dropped (counted); time may otherwise move backward
     * freely within the window (a chip reactivated after an outage
     * resumes at the sim time its clock froze at).
     */
    void record(Seconds t, double v);

    Seconds interval() const { return interval_; }
    size_t capacity() const { return ring_.size(); }

    /** Whether any sample has ever been recorded. */
    bool empty() const { return recorded_ == 0; }

    /** Oldest retained bucket index (floor(t/interval) space). */
    int64_t firstBucket() const;

    /** Newest bucket index written so far. */
    int64_t lastBucket() const { return last_; }

    /** Bucket by absolute index (zeros outside the retained window). */
    TimeBucket bucket(int64_t index) const;

    /** Samples ever recorded (including dropped-as-too-old). */
    uint64_t recorded() const { return recorded_; }

    /** Samples dropped because they predate the retained window. */
    uint64_t droppedOld() const { return droppedOld_; }

    /** Discard all samples (interval/capacity kept). */
    void clear();

  private:
    /** slotIndex_ sentinel: the ring slot has never been written. */
    static constexpr int64_t kUnwrittenSlot = INT64_MIN;

    /** Ring position of an absolute bucket index. */
    size_t ringPos(int64_t index) const
    {
        const int64_t span = int64_t(ring_.size());
        return size_t(((index % span) + span) % span);
    }

    Seconds interval_;
    std::vector<TimeBucket> ring_;
    /**
     * Absolute bucket index each ring slot currently holds (-1 =
     * never written). Sparse samples (fleet blocks spanning many
     * bucket widths) would otherwise force record() to zero every
     * skipped bucket; tagging slots instead keeps record() O(1) —
     * a stale slot reads as empty until its index comes around again.
     */
    std::vector<int64_t> slotIndex_;
    /** Newest bucket index; valid once recorded_ > 0. */
    int64_t last_ = 0;
    /** Oldest bucket index that has ever been opened. */
    int64_t first_ = 0;
    uint64_t recorded_ = 0;
    uint64_t droppedOld_ = 0;
};

} // namespace agsim::obs::telemetry

#endif // AGSIM_OBS_TELEMETRY_TIME_SERIES_H
