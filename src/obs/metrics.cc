#include "obs/metrics.h"

#include <algorithm>

#include "common/error.h"
#include "obs/json_writer.h"

namespace agsim::obs {

HistogramMetric::HistogramMetric(double lo, double hi, size_t bins)
    : lo_(lo), hi_(hi), bins_(bins), histogram_(lo, hi, bins)
{
}

void
HistogramMetric::observe(double x)
{
    ag::MutexLock lock(mutex_);
    histogram_.add(x);
}

stats::Histogram
HistogramMetric::snapshot() const
{
    ag::MutexLock lock(mutex_);
    return histogram_;
}

void
HistogramMetric::reset()
{
    ag::MutexLock lock(mutex_);
    histogram_ = stats::Histogram(lo_, hi_, bins_);
}

std::string
MetricRegistry::key(const std::string &name, const MetricLabels &labels)
{
    if (labels.empty())
        return name;
    MetricLabels sorted = labels;
    std::sort(sorted.begin(), sorted.end());
    std::string key = name + "{";
    for (size_t i = 0; i < sorted.size(); ++i) {
        if (i > 0)
            key += ",";
        key += sorted[i].first + "=" + sorted[i].second;
    }
    key += "}";
    return key;
}

MetricLabels
MetricRegistry::overflowLabels()
{
    return {{"overflow", "true"}};
}

bool
MetricRegistry::admitSeriesLocked(const std::string &name)
{
    size_t &count = seriesPerName_[name];
    if (maxSeriesPerMetric_ != 0 && count >= maxSeriesPerMetric_) {
        droppedSeries_.add(1);
        return false;
    }
    ++count;
    return true;
}

bool
MetricRegistry::canAdmitSeriesLocked(const std::string &name) const
{
    if (maxSeriesPerMetric_ == 0)
        return true;
    auto it = seriesPerName_.find(name);
    return it == seriesPerName_.end() || it->second < maxSeriesPerMetric_;
}

Counter &
MetricRegistry::counterCellLocked(const std::string &k)
{
    auto &slot = counters_[k];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Counter &
MetricRegistry::counter(const std::string &name, const MetricLabels &labels)
{
    std::string k = key(name, labels);
    ag::MutexLock lock(mutex_);
    auto it = counters_.find(k);
    if (it != counters_.end())
        return *it->second;
    if (!admitSeriesLocked(name))
        k = key(name, overflowLabels());
    return counterCellLocked(k);
}

Gauge &
MetricRegistry::gauge(const std::string &name, const MetricLabels &labels)
{
    std::string k = key(name, labels);
    ag::MutexLock lock(mutex_);
    auto it = gauges_.find(k);
    if (it != gauges_.end())
        return *it->second;
    if (!admitSeriesLocked(name))
        k = key(name, overflowLabels());
    auto &slot = gauges_[k];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

HistogramMetric &
MetricRegistry::histogram(const std::string &name, double lo, double hi,
                          size_t bins, const MetricLabels &labels)
{
    std::string k = key(name, labels);
    ag::MutexLock lock(mutex_);
    auto it = histograms_.find(k);
    if (it != histograms_.end())
        return *it->second;
    // Validate the layout only when it is actually used: the documented
    // contract is that later calls with an existing identity ignore
    // lo/hi/bins, so a re-fetch with placeholder bounds must not abort.
    fatalIf(hi <= lo || bins == 0, "histogram metric needs hi > lo and bins");
    if (!admitSeriesLocked(name))
        k = key(name, overflowLabels());
    auto &slot = histograms_[k];
    if (!slot)
        slot = std::make_unique<HistogramMetric>(lo, hi, bins);
    return *slot;
}

void
MetricRegistry::setMaxSeriesPerMetric(size_t cap)
{
    ag::MutexLock lock(mutex_);
    maxSeriesPerMetric_ = cap;
}

int64_t
MetricRegistry::droppedSeries() const
{
    return droppedSeries_.value();
}

TimerStat
MetricRegistry::timer(const std::string &name, const MetricLabels &labels)
{
    const std::string callsName = name + ".calls";
    const std::string nanosName = name + ".ns";
    std::string callsKey = key(callsName, labels);
    std::string nanosKey = key(nanosName, labels);
    TimerStat stat;
    ag::MutexLock lock(mutex_);
    const bool callsNew = counters_.find(callsKey) == counters_.end();
    const bool nanosNew = counters_.find(nanosKey) == counters_.end();
    // Joint admission under a single lock hold. Admitting the halves
    // independently (two counter() calls) could split the pair at the
    // cardinality boundary — `.calls` landing in a live series while
    // `.ns` collapses into the shared overflow cell — which silently
    // corrupts ns-per-call math and, worse, races: another thread's
    // registration between the two locks decides which half overflows.
    if ((callsNew && !canAdmitSeriesLocked(callsName)) ||
        (nanosNew && !canAdmitSeriesLocked(nanosName))) {
        if (callsNew)
            droppedSeries_.add(1);
        if (nanosNew)
            droppedSeries_.add(1);
        callsKey = key(callsName, overflowLabels());
        nanosKey = key(nanosName, overflowLabels());
    } else {
        if (callsNew)
            admitSeriesLocked(callsName);
        if (nanosNew)
            admitSeriesLocked(nanosName);
    }
    stat.calls = &counterCellLocked(callsKey);
    stat.nanos = &counterCellLocked(nanosKey);
    return stat;
}

std::string
MetricRegistry::snapshotJson() const
{
    ag::MutexLock lock(mutex_);
    std::string out = "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[k, c] : counters_) {
        out += first ? "\n" : ",\n";
        out += "    \"" + jsonEscape(k) + "\": " +
               std::to_string(c->value());
        first = false;
    }
    out += first ? "\n" : ",\n";
    out += "    \"obs.dropped_series_total\": " +
           std::to_string(droppedSeries_.value());
    out += "\n  },\n";

    out += "  \"gauges\": {";
    first = true;
    for (const auto &[k, g] : gauges_) {
        out += first ? "\n" : ",\n";
        out += "    \"" + jsonEscape(k) + "\": " + jsonNumber(g->value());
        first = false;
    }
    out += first ? "},\n" : "\n  },\n";

    out += "  \"histograms\": {";
    first = true;
    for (const auto &[k, h] : histograms_) {
        const stats::Histogram snap = h->snapshot();
        out += first ? "\n" : ",\n";
        out += "    \"" + jsonEscape(k) + "\": {\"lo\": " +
               jsonNumber(h->lo()) + ", \"hi\": " + jsonNumber(h->hi()) +
               ", \"underflow\": " + std::to_string(snap.underflow()) +
               ", \"overflow\": " + std::to_string(snap.overflow()) +
               ", \"total\": " + std::to_string(snap.total()) +
               ", \"bins\": [";
        for (size_t i = 0; i < snap.bins(); ++i) {
            if (i > 0)
                out += ", ";
            out += std::to_string(snap.binCount(i));
        }
        out += "]}";
        first = false;
    }
    out += first ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

void
MetricRegistry::resetValues()
{
    ag::MutexLock lock(mutex_);
    for (auto &[k, c] : counters_)
        c->reset();
    for (auto &[k, g] : gauges_)
        g->reset();
    for (auto &[k, h] : histograms_)
        h->reset();
    droppedSeries_.reset();
}

} // namespace agsim::obs
