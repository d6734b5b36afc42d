#include "stats/percentile.h"

#include <algorithm>

#include "common/error.h"

namespace agsim::stats {

void
PercentileTracker::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

void
PercentileTracker::merge(const PercentileTracker &other)
{
    if (other.samples_.empty())
        return;
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
    sorted_ = false;
}

double
PercentileTracker::percentile(double p) const
{
    fatalIf(p < 0.0 || p > 100.0, "percentile must be in [0, 100]");
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    if (samples_.size() == 1)
        return samples_.front();
    const double rank = (p / 100.0) * double(samples_.size() - 1);
    const size_t lo = size_t(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - double(lo);
    return samples_[lo] + frac * (samples_[hi] - samples_[lo]);
}

void
PercentileTracker::clear()
{
    samples_.clear();
    sorted_ = true;
}

} // namespace agsim::stats
