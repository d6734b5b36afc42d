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

double
MergedSeries::latest(BucketStat stat) const
{
    for (size_t k = buckets.size(); k > 0; --k) {
        if (buckets[k - 1].count > 0)
            return bucketStatValue(buckets[k - 1], stat);
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

MergedSeries
TimeSeriesBuffer::merge(const std::vector<const TimeSeriesBuffer *> &buffers)
{
    MergedSeries merged;
    int64_t lo = 0;
    int64_t hi = 0;
    bool any = false;
    for (const TimeSeriesBuffer *buffer : buffers) {
        if (buffer == nullptr || buffer->empty())
            continue;
        if (!any) {
            merged.interval = buffer->interval();
            lo = buffer->firstBucket();
            hi = buffer->lastBucket();
            any = true;
            continue;
        }
        fatalIf(buffer->interval() != merged.interval,
                "cannot merge time series with different intervals");
        lo = std::min(lo, buffer->firstBucket());
        hi = std::max(hi, buffer->lastBucket());
    }
    if (!any)
        return merged;
    merged.firstBucket = lo;
    merged.buckets.resize(size_t(hi - lo + 1));
    for (const TimeSeriesBuffer *buffer : buffers) {
        if (buffer == nullptr || buffer->empty())
            continue;
        for (int64_t b = buffer->firstBucket(); b <= buffer->lastBucket();
             ++b)
            merged.buckets[size_t(b - lo)].fold(buffer->bucket(b));
    }
    return merged;
}

} // namespace agsim::obs::telemetry
