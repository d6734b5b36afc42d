/**
 * @file
 * Adaptive mapping: the feedback-driven co-runner scheduler of the
 * paper's Sec. 5.2 / Fig. 18.
 *
 * Every scheduling quantum, for each application marked critical:
 *  1. log QoS and chip frequency (feeding the freq-QoS model) and the
 *     memory counters (feeding the contention predictor);
 *  2. if the QoS violation rate exceeds the threshold:
 *     a. if the app's QoS is frequency sensitive, derive the needed
 *        frequency from the freq-QoS model, invert the MIPS-based
 *        frequency predictor into a co-runner MIPS budget, and pick the
 *        highest-throughput co-runner that fits (falling back to the
 *        lightest when none fits);
 *     b. otherwise pick the co-runner with the least memory pressure.
 *
 * The scheduler is middleware: it only sees counters (MIPS, LLC misses),
 * QoS reports and the co-runner catalogue — never model internals.
 */

#ifndef AGSIM_CORE_ADAPTIVE_MAPPING_H
#define AGSIM_CORE_ADAPTIVE_MAPPING_H

#include <cstddef>
#include <string>
#include <vector>

#include "chip/chip_health.h"
#include "common/units.h"
#include "core/freq_qos_model.h"
#include "core/mips_predictor.h"

namespace agsim::core {

/** One candidate co-runner as the scheduler sees it. */
struct CorunnerOption
{
    std::string name;
    /** Total chip MIPS the co-runner contributes when scheduled. */
    double totalMips = 0.0;
    /** Memory pressure proxy (e.g. LLC-miss-rate-weighted MIPS). */
    double memoryPressure = 0.0;
};

/** The scheduler's verdict for one quantum. */
struct MappingDecision
{
    /** Replace the current co-runner? */
    bool swap = false;
    /** Index into the candidate list when swap is true. */
    size_t corunnerIndex = 0;
    /** Frequency the critical app needs (when frequency sensitive). */
    Hertz requiredFrequency = Hertz{0.0};
    /** MIPS budget left for co-runners at that frequency. */
    double corunnerMipsBudget = 0.0;
    /** Why the decision was taken (for operator logs). */
    std::string reason;
};

/** Adaptive-mapping tunables. */
struct AdaptiveMappingParams
{
    /** Violation rate that triggers a re-mapping (Fig. 17: >25%). */
    double violationThreshold = 0.25;
    /** Correlation needed to call an app frequency sensitive. */
    double sensitivityThreshold = 0.3;
    /** Safety margin applied to the required frequency (fractional). */
    double frequencyMargin = 0.003;
    /**
     * Tail guard: the scheduler aims the *mean* windowed metric this
     * fraction below the SLA value, because window-to-window variance
     * makes a mean sitting exactly on the SLA violate ~half the time.
     */
    double qosMargin = 0.08;
    /**
     * Fraction shaved off the co-runner MIPS budget when the host
     * chip's safety telemetry says it is demoted: the predictor's
     * MIPS -> frequency fit was learned with adaptive headroom the
     * demoted chip no longer has, so the raw budget overcommits.
     * Matches the single-core overclock boost by default.
     */
    double demotedMipsDiscount = 0.10;
};

/**
 * The per-critical-app scheduling logic.
 */
class AdaptiveMappingScheduler
{
  public:
    explicit AdaptiveMappingScheduler(const AdaptiveMappingParams &params =
                                          AdaptiveMappingParams());

    /** Train the chip-frequency predictor (hardware counter samples). */
    // lint: allow(units-boundary): MIPS is the predictor's raw counter
    // feature; units.h has no Mips Quantity (toMips is presentation).
    void observeFrequency(double chipMips, Hertz frequency);

    /** Log the critical app's QoS at a chip frequency. */
    void observeQos(Hertz frequency, double qosMetric);

    /**
     * One scheduling quantum.
     *
     * @param violationRate Fraction of recent windows violating QoS.
     * @param qosTarget The SLA metric value that must be met.
     * @param criticalMips The critical app's own MIPS contribution.
     * @param currentCorunner Index into `candidates` of the co-runner
     *        currently scheduled.
     * @param candidates Available co-runners (non-empty).
     * @param health Host-chip safety telemetry, or nullptr when the
     *        middleware has none; a demoted host's MIPS budget is
     *        discounted by demotedMipsDiscount.
     */
    MappingDecision decide(double violationRate, double qosTarget,
                           // lint: allow(units-boundary): raw counter
                           // feature, same as observeFrequency above.
                           double criticalMips, size_t currentCorunner,
                           const std::vector<CorunnerOption> &candidates,
                           const chip::ChipHealthView *health = nullptr)
        const;

    const MipsFreqPredictor &predictor() const { return predictor_; }
    const FreqQosModel &qosModel() const { return qosModel_; }
    MipsFreqPredictor &predictor() { return predictor_; }
    FreqQosModel &qosModel() { return qosModel_; }

    const AdaptiveMappingParams &params() const { return params_; }

  private:
    AdaptiveMappingParams params_;
    MipsFreqPredictor predictor_;
    FreqQosModel qosModel_;
};

} // namespace agsim::core

#endif // AGSIM_CORE_ADAPTIVE_MAPPING_H
