#include "stats/accumulator.h"

#include <algorithm>
#include <cmath>

namespace agsim::stats {

void
Accumulator::add(double x)
{
    addWeighted(x, 1.0);
}

void
Accumulator::addWeighted(double x, double weight)
{
    if (weight <= 0.0)
        return;
    weight_ += weight;
    const double delta = x - mean_;
    mean_ += delta * (weight / weight_);
    m2_ += weight * delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

double
Accumulator::variance() const
{
    if (weight_ <= 1.0)
        return 0.0;
    return m2_ / weight_;
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

} // namespace agsim::stats
