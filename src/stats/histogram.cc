#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/error.h"

namespace agsim::stats {

Histogram::Histogram(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    fatalIf(hi <= lo, "histogram range must be non-empty");
    fatalIf(bins == 0, "histogram needs at least one bin");
    binWidth_ = (hi - lo) / double(bins);
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    const size_t idx = std::min(size_t((x - lo_) / binWidth_),
                                counts_.size() - 1);
    ++counts_[idx];
}

uint64_t
Histogram::binCount(size_t i) const
{
    panicIf(i >= counts_.size(), "histogram bin out of range");
    return counts_[i];
}

double
Histogram::binCenter(size_t i) const
{
    panicIf(i >= counts_.size(), "histogram bin out of range");
    return lo_ + (double(i) + 0.5) * binWidth_;
}

double
Histogram::cdf(double x) const
{
    const uint64_t inRange = total_ - underflow_ - overflow_;
    if (inRange == 0)
        return 0.0;
    uint64_t below = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        const double upperEdge = lo_ + double(i + 1) * binWidth_;
        if (upperEdge <= x) {
            below += counts_[i];
        } else {
            // Fractional credit within the bin containing x.
            const double lowerEdge = lo_ + double(i) * binWidth_;
            if (x > lowerEdge) {
                below += uint64_t(std::llround(
                    double(counts_[i]) * (x - lowerEdge) / binWidth_));
            }
            break;
        }
    }
    return double(below) / double(inRange);
}

std::string
Histogram::render(size_t width) const
{
    uint64_t peak = 1;
    for (auto c : counts_)
        peak = std::max(peak, c);
    std::ostringstream out;
    for (size_t i = 0; i < counts_.size(); ++i) {
        const size_t bar = size_t(double(counts_[i]) / double(peak) *
                                  double(width));
        out << "  " << binCenter(i) << "\t|"
            << std::string(bar, '#') << " " << counts_[i] << "\n";
    }
    return out.str();
}

} // namespace agsim::stats
