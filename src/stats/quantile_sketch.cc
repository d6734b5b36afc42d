#include "stats/quantile_sketch.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace agsim::stats {

QuantileSketch::QuantileSketch(double relativeAccuracy)
    : alpha_(relativeAccuracy)
{
    fatalIf(!(alpha_ > 0.0 && alpha_ < 1.0),
            "quantile sketch accuracy must be in (0, 1)");
    gamma_ = (1.0 + alpha_) / (1.0 - alpha_);
    logGamma_ = std::log(gamma_);
    // Values this small are indistinguishable from zero at any alpha
    // the telemetry plane uses; collapsing them keeps the bucket index
    // range (and therefore memory) bounded.
    minMagnitude_ = 1e-12;
}

QuantileSketch::QuantileSketch(const QuantileSketch &other)
    : alpha_(other.alpha_), gamma_(other.gamma_),
      logGamma_(other.logGamma_), minMagnitude_(other.minMagnitude_),
      positive_(other.positive_), negative_(other.negative_),
      zero_(other.zero_), count_(other.count_), min_(other.min_),
      max_(other.max_), sum_(other.sum_)
{
}

QuantileSketch &
QuantileSketch::operator=(const QuantileSketch &other)
{
    if (this == &other)
        return *this;
    alpha_ = other.alpha_;
    gamma_ = other.gamma_;
    logGamma_ = other.logGamma_;
    minMagnitude_ = other.minMagnitude_;
    positive_ = other.positive_;
    negative_ = other.negative_;
    zero_ = other.zero_;
    count_ = other.count_;
    min_ = other.min_;
    max_ = other.max_;
    sum_ = other.sum_;
    cachePos_ = nullptr;
    cacheHiPos_ = -1.0;
    cacheNeg_ = nullptr;
    cacheHiNeg_ = -1.0;
    return *this;
}

int32_t
QuantileSketch::indexFor(double magnitude) const
{
    return int32_t(std::ceil(std::log(magnitude) / logGamma_));
}

double
QuantileSketch::valueFor(int32_t index) const
{
    // Midpoint of (gamma^(i-1), gamma^i] in the relative-error sense.
    return 2.0 * std::pow(gamma_, double(index)) / (gamma_ + 1.0);
}

void
QuantileSketch::add(double x, uint64_t weight)
{
    if (weight == 0 || std::isnan(x))
        return;
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    count_ += weight;
    sum_ += x * double(weight);
    const double magnitude = std::abs(x);
    if (magnitude <= minMagnitude_) {
        zero_ += weight;
    } else if (x > 0.0) {
        if (cachePos_ != nullptr && magnitude > cacheLoPos_ &&
            magnitude <= cacheHiPos_) {
            *cachePos_ += weight;
        } else {
            const int32_t index = indexFor(magnitude);
            cachePos_ = &positive_[index];
            *cachePos_ += weight;
            cacheHiPos_ = std::pow(gamma_, double(index));
            cacheLoPos_ = cacheHiPos_ / gamma_;
        }
    } else {
        if (cacheNeg_ != nullptr && magnitude > cacheLoNeg_ &&
            magnitude <= cacheHiNeg_) {
            *cacheNeg_ += weight;
        } else {
            const int32_t index = indexFor(magnitude);
            cacheNeg_ = &negative_[index];
            *cacheNeg_ += weight;
            cacheHiNeg_ = std::pow(gamma_, double(index));
            cacheLoNeg_ = cacheHiNeg_ / gamma_;
        }
    }
}

double
QuantileSketch::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested order statistic, 0-based.
    const uint64_t rank = uint64_t(q * double(count_ - 1));

    // Walk buckets in ascending value order: negatives from largest
    // magnitude down, then zero, then positives from smallest up.
    uint64_t seen = 0;
    for (auto it = negative_.rbegin(); it != negative_.rend(); ++it) {
        seen += it->second;
        if (seen > rank)
            return std::max(-valueFor(it->first), min_);
    }
    seen += zero_;
    if (seen > rank)
        return 0.0;
    for (const auto &[index, n] : positive_) {
        seen += n;
        if (seen > rank)
            return std::min(valueFor(index), max_);
    }
    return max_;
}

void
QuantileSketch::clear()
{
    positive_.clear();
    negative_.clear();
    cachePos_ = nullptr;
    cacheHiPos_ = -1.0;
    cacheNeg_ = nullptr;
    cacheHiNeg_ = -1.0;
    zero_ = 0;
    count_ = 0;
    min_ = 0.0;
    max_ = 0.0;
    sum_ = 0.0;
}

} // namespace agsim::stats
