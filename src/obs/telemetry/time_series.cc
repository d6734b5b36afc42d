#include "obs/telemetry/time_series.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace agsim::obs::telemetry {

double
bucketStatValue(const TimeBucket &bucket, BucketStat stat)
{
    switch (stat) {
      case BucketStat::Mean: return bucket.mean();
      case BucketStat::Min: return bucket.min;
      case BucketStat::Max: return bucket.max;
      case BucketStat::Last: return bucket.last;
      case BucketStat::Sum: return bucket.sum;
      case BucketStat::Count: return double(bucket.count);
    }
    return 0.0;
}

TimeSeriesBuffer::TimeSeriesBuffer(Seconds interval, size_t capacity)
    : interval_(interval)
{
    fatalIf(interval <= Seconds{0.0},
            "time series bucket interval must be positive");
    fatalIf(capacity < 2, "time series ring needs at least two buckets");
    ring_.resize(capacity);
    slotIndex_.assign(capacity, kUnwrittenSlot);
}

int64_t
TimeSeriesBuffer::firstBucket() const
{
    const int64_t span = int64_t(ring_.size());
    return std::max(first_, last_ - span + 1);
}

void
TimeSeriesBuffer::record(Seconds t, double v)
{
    const int64_t index =
        int64_t(std::floor(t.value() / interval_.value()));
    if (recorded_ == 0) {
        first_ = index;
        last_ = index;
    } else if (index > last_) {
        last_ = index;
    } else if (index < firstBucket()) {
        ++recorded_;
        ++droppedOld_;
        return;
    }
    ++recorded_;
    // Slots are lazily claimed by tagging them with the absolute
    // bucket index they hold; a slot still tagged with an older lap
    // reads as empty (bucket()), so skipped buckets never need to be
    // zeroed here — record() is O(1) however sparse the samples.
    const size_t pos = ringPos(index);
    if (slotIndex_[pos] != index) {
        slotIndex_[pos] = index;
        ring_[pos] = TimeBucket{};
    }
    ring_[pos].add(v);
}

TimeBucket
TimeSeriesBuffer::bucket(int64_t index) const
{
    if (recorded_ == 0 || index < firstBucket() || index > last_)
        return TimeBucket{};
    const size_t pos = ringPos(index);
    if (slotIndex_[pos] != index)
        return TimeBucket{};
    return ring_[pos];
}

void
TimeSeriesBuffer::clear()
{
    for (TimeBucket &bucket : ring_)
        bucket = TimeBucket{};
    slotIndex_.assign(slotIndex_.size(), kUnwrittenSlot);
    first_ = 0;
    last_ = 0;
    recorded_ = 0;
    droppedOld_ = 0;
}

} // namespace agsim::obs::telemetry
