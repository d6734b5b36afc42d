#include "core/adaptive_mapping.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace agsim::core {

AdaptiveMappingScheduler::AdaptiveMappingScheduler(
    const AdaptiveMappingParams &params)
    : params_(params)
{
    fatalIf(params_.violationThreshold < 0.0 ||
            params_.violationThreshold > 1.0,
            "violation threshold out of [0, 1]");
    fatalIf(params_.frequencyMargin < 0.0, "negative frequency margin");
    fatalIf(params_.qosMargin < 0.0 || params_.qosMargin >= 1.0,
            "QoS margin out of [0, 1)");
    fatalIf(params_.demotedMipsDiscount < 0.0 ||
            params_.demotedMipsDiscount >= 1.0,
            "demoted MIPS discount out of [0, 1)");
}

void
AdaptiveMappingScheduler::observeFrequency(double chipMips, Hertz frequency)
{
    predictor_.observe(chipMips, frequency);
}

void
AdaptiveMappingScheduler::observeQos(Hertz frequency, double qosMetric)
{
    qosModel_.observe(frequency, qosMetric);
}

MappingDecision
AdaptiveMappingScheduler::decide(
    double violationRate, double qosTarget, double criticalMips,
    size_t currentCorunner,
    const std::vector<CorunnerOption> &candidates,
    const chip::ChipHealthView *health) const
{
    fatalIf(candidates.empty(), "adaptive mapping needs candidates");
    fatalIf(currentCorunner >= candidates.size(),
            "current co-runner index out of range");

    MappingDecision decision;
    if (violationRate <= params_.violationThreshold) {
        decision.reason = "QoS within SLA; keep current mapping";
        return decision;
    }

    if (qosModel_.trained() && predictor_.trained() &&
        qosModel_.frequencySensitive(params_.sensitivityThreshold)) {
        // Frequency path: QoS target -> needed frequency -> MIPS budget.
        // Aim below the SLA by the tail guard (lower metric = better).
        const double desired = qosTarget * (1.0 - params_.qosMargin);
        const Hertz needed = qosModel_.frequencyForQos(desired) *
                             (1.0 + params_.frequencyMargin);
        decision.requiredFrequency = needed;
        const double maxChipMips = predictor_.maxMipsForFrequency(needed);
        double budget = maxChipMips - criticalMips;
        // A demoted host runs at static-guardband frequencies the
        // predictor's fit (trained with adaptive headroom) overstates:
        // shave the budget so the co-runner pick does not overcommit.
        const bool demotedHost = health != nullptr && health->demoted() &&
                                 health->adaptiveCommanded();
        if (demotedHost)
            budget *= 1.0 - params_.demotedMipsDiscount;
        decision.corunnerMipsBudget = std::max(budget, 0.0);

        // Highest-throughput candidate that fits the budget keeps
        // utilization up; fall back to the lightest one.
        size_t best = candidates.size();
        for (size_t i = 0; i < candidates.size(); ++i) {
            if (candidates[i].totalMips <= decision.corunnerMipsBudget &&
                (best == candidates.size() ||
                 candidates[i].totalMips > candidates[best].totalMips)) {
                best = i;
            }
        }
        if (best == candidates.size()) {
            best = 0;
            for (size_t i = 1; i < candidates.size(); ++i) {
                if (candidates[i].totalMips < candidates[best].totalMips)
                    best = i;
            }
            decision.reason = "no candidate fits the MIPS budget; "
                              "falling back to the lightest co-runner";
        } else {
            decision.reason = "heaviest co-runner within the predicted "
                              "MIPS budget";
        }
        if (demotedHost)
            decision.reason += " (budget discounted: host demoted)";
        decision.swap = best != currentCorunner;
        decision.corunnerIndex = best;
        return decision;
    }

    // Memory path (Fig. 18's right branch): QoS not frequency sensitive,
    // so contention is the culprit; pick the least memory-aggressive
    // co-runner.
    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
        if (candidates[i].memoryPressure < candidates[best].memoryPressure)
            best = i;
    }
    decision.swap = best != currentCorunner;
    decision.corunnerIndex = best;
    decision.reason = "QoS not frequency sensitive; choosing the "
                      "lowest-memory-pressure co-runner";
    return decision;
}

} // namespace agsim::core
