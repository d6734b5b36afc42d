#include "obs/telemetry/slo.h"

#include <utility>

#include "common/error.h"
#include "obs/observability.h"

namespace agsim::obs::telemetry {

void
SloRule::validate() const
{
    fatalIf(name.empty(), "SLO rule needs a name");
    fatalIf(series.empty(), "SLO rule '" + name + "' needs a series");
    fatalIf(budget <= 0.0 || budget > 1.0,
            "SLO rule '" + name + "' budget must be in (0, 1]");
    fatalIf(shortWindow <= Seconds{0.0} || longWindow <= Seconds{0.0},
            "SLO rule '" + name + "' windows must be positive");
    fatalIf(longWindow < shortWindow,
            "SLO rule '" + name + "' long window shorter than short");
    fatalIf(burnRate <= 0.0,
            "SLO rule '" + name + "' burn rate must be positive");
}

void
SloEngine::addRule(SloRule rule)
{
    rule.validate();
    for (const SloAlertState &state : alerts_)
        fatalIf(state.rule.name == rule.name,
                "duplicate SLO rule '" + rule.name + "'");
    SloAlertState state;
    state.rule = std::move(rule);
    alerts_.push_back(std::move(state));
}

double
SloEngine::badFraction(const MergedSeries &series, const SloRule &rule,
                       Seconds now, Seconds window, bool &hasData)
{
    hasData = false;
    if (series.empty())
        return 0.0;
    const Seconds start = now - window;
    uint64_t total = 0;
    uint64_t bad = 0;
    for (size_t k = 0; k < series.buckets.size(); ++k) {
        const TimeBucket &bucket = series.buckets[k];
        if (bucket.count == 0)
            continue;
        const Seconds lo = series.bucketStart(k);
        const Seconds hi = lo + series.interval;
        // Buckets whose span intersects [now - window, now].
        if (hi <= start || lo > now)
            continue;
        ++total;
        const double v = bucketStatValue(bucket, rule.stat);
        const bool violated =
            rule.violationIsAbove ? v > rule.threshold : v < rule.threshold;
        if (violated)
            ++bad;
    }
    if (total == 0)
        return 0.0;
    hasData = true;
    return double(bad) / double(total);
}

std::vector<SloEdge>
SloEngine::evaluate(Seconds now, const SeriesLookup &lookup)
{
    fatalIf(!lookup, "SLO evaluation needs a series lookup");
    std::vector<SloEdge> edges;
    for (SloAlertState &state : alerts_) {
        const SloRule &rule = state.rule;
        const MergedSeries series = lookup(rule.series);
        bool shortData = false;
        bool longData = false;
        const double shortBad =
            badFraction(series, rule, now, rule.shortWindow, shortData);
        const double longBad =
            badFraction(series, rule, now, rule.longWindow, longData);
        if (!shortData && !longData)
            continue; // No overlapping data: hold the current state.
        state.shortBurn = shortBad / rule.budget;
        state.longBurn = longBad / rule.budget;

        const bool shouldFire = state.shortBurn >= rule.burnRate &&
                                state.longBurn >= rule.burnRate;
        const bool shouldResolve =
            state.shortBurn < 1.0 && state.longBurn < 1.0;

        if (!state.active && shouldFire) {
            state.active = true;
            state.firedAt = now;
            ++state.fireCount;
        } else if (state.active && shouldResolve) {
            state.active = false;
            state.resolvedAt = now;
        } else {
            continue;
        }
        TraceEvent event;
        event.simTime = now;
        event.kind = TraceKind::SloAlert;
        event.a = state.shortBurn;
        event.b = state.longBurn;
        event.detail = (state.active ? "fire:" : "resolve:") + rule.name;
        emit(std::move(event));
        edges.push_back(SloEdge{state, state.active});
    }
    return edges;
}

uint64_t
SloEngine::totalFires() const
{
    uint64_t total = 0;
    for (const SloAlertState &state : alerts_)
        total += state.fireCount;
    return total;
}

size_t
SloEngine::activeCount() const
{
    size_t active = 0;
    for (const SloAlertState &state : alerts_)
        if (state.active)
            ++active;
    return active;
}

} // namespace agsim::obs::telemetry
