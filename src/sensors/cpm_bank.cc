#include "sensors/cpm_bank.h"

#include <algorithm>

#include "common/error.h"

namespace agsim::sensors {

namespace {

/**
 * Variance class per core: the paper's Fig. 6b shows cores 1, 3 and 5
 * with visibly wider CPM spread than cores 2, 6 and 7. Returned value
 * multiplies the CpmParams spread knobs.
 */
double
coreVarianceClass(size_t coreId)
{
    switch (coreId % 8) {
      case 1:
      case 3:
      case 5:
        return 1.8; // loose cores
      case 2:
      case 6:
      case 7:
        return 0.6; // tight cores
      default:
        return 1.0; // average cores (0, 4)
    }
}

} // namespace

CpmBank::CpmBank(const power::VfCurve *curve, const CpmParams &params,
                 size_t coreId, uint64_t seed, size_t cpmsPerCore)
{
    fatalIf(cpmsPerCore == 0, "CPM bank needs at least one CPM");
    const double varianceClass = coreVarianceClass(coreId);
    Rng rng(seed, 0xC9A0ull + coreId);
    cpms_.reserve(cpmsPerCore);
    for (size_t i = 0; i < cpmsPerCore; ++i) {
        const double sensScale = std::max(
            0.5, 1.0 + params.sensitivitySpread * varianceClass *
                 rng.normal());
        const double offset =
            params.offsetSpreadBits * varianceClass * rng.normal();
        const double controlOffset =
            params.controlOffsetSpreadBits * rng.normal();
        cpms_.emplace_back(curve, params, sensScale, offset,
                           controlOffset);
    }
}

int
CpmBank::read(size_t index, Volts v, Hertz f) const
{
    panicIf(index >= cpms_.size(), "CPM index out of range");
    return cpms_[index].read(v, f);
}

int
CpmBank::minRead(Volts v, Hertz f) const
{
    // Injected sensor faults override or shift what the hardware would
    // report: a dark bank pegs high, a stuck bank repeats one position,
    // a biased bank reads as if the voltage were biasVolts higher.
    if (fault_.dropout)
        return cpms_.front().params().positions - 1;
    if (fault_.stuckPosition >= 0) {
        return std::min(fault_.stuckPosition,
                        cpms_.front().params().positions - 1);
    }
    v += fault_.biasVolts;
    // Every CPM of the bank reads the same (v, f), so the margin excess
    // and the frequency scaling are computed once and shared across the
    // bank (value-identical to per-CPM read(); see Cpm::readAt).
    const Cpm &front = cpms_.front();
    const power::VfCurve *curve = front.curve();
    const Volts excess =
        curve->marginAt(v, f) - curve->params().calibratedMargin;
    const double scaling = scalingAt(f);
    int lowest = front.readAt(excess, scaling);
    for (size_t i = 1; i < cpms_.size(); ++i)
        lowest = std::min(lowest, cpms_[i].readAt(excess, scaling));
    return lowest;
}

double
CpmBank::meanRaw(Volts v, Hertz f) const
{
    double sum = 0.0;
    for (const auto &cpm : cpms_)
        sum += cpm.rawPosition(v, f);
    return sum / double(cpms_.size());
}

Volts
CpmBank::voltsPerBit(size_t index, Hertz f) const
{
    panicIf(index >= cpms_.size(), "CPM index out of range");
    return cpms_[index].voltsPerBit(f);
}

Volts
CpmBank::meanVoltsPerBit(Hertz f) const
{
    Volts sum;
    for (const auto &cpm : cpms_)
        sum += cpm.voltsPerBit(f);
    return sum / double(cpms_.size());
}

Volts
CpmBank::controlBias(Hertz f) const
{
    // The fault bias changes from step to step, so it is never memoized.
    const Volts lowest =
        f == memo_.f ? memo_.lowestBias : lowestBiasAt(scalingAt(f));
    return lowest + fault_.biasVolts;
}

double
CpmBank::scalingAt(Hertz f) const
{
    if (f == memo_.f)
        return memo_.scaling;
    // Shared frequency scaling across the bank.
    const Cpm &front = cpms_.front();
    return Cpm::frequencyScaling(front.curve()->params().refFrequency / f,
                                 front.params().sensitivityFreqExponent);
}

Volts
CpmBank::lowestBiasAt(double scaling) const
{
    Volts lowest = cpms_.front().controlBiasScaled(scaling);
    for (size_t i = 1; i < cpms_.size(); ++i)
        lowest = std::min(lowest, cpms_[i].controlBiasScaled(scaling));
    return lowest;
}

void
CpmBank::memoize(Hertz f)
{
    if (f == memo_.f)
        return;
    memo_.scaling = scalingAt(f);
    memo_.lowestBias = lowestBiasAt(memo_.scaling);
    memo_.f = f;
}

Volts
CpmBank::controlVoltage(Volts vTrue, Hertz f) const
{
    // A stuck or dark bank decouples the loop from the true voltage
    // entirely: the loop believes the constant voltage the (faulty)
    // reading implies. Dropout pegs the detector high, which inverts to
    // maximal margin — the most dangerous lie a sensor can tell.
    if (fault_.dropout) {
        return cpms_.front().positionToVoltage(
            double(cpms_.front().params().positions - 1), f);
    }
    if (fault_.stuckPosition >= 0)
        return cpms_.front().positionToVoltage(
            double(fault_.stuckPosition), f);
    return vTrue + controlBias(f);
}

const Cpm &
CpmBank::cpm(size_t index) const
{
    panicIf(index >= cpms_.size(), "CPM index out of range");
    return cpms_[index];
}

ChipCpmArray::ChipCpmArray(const power::VfCurve *curve,
                           const CpmParams &params, size_t coreCount,
                           uint64_t seed, size_t cpmsPerCore)
{
    fatalIf(coreCount == 0, "chip CPM array needs cores");
    banks_.reserve(coreCount);
    for (size_t core = 0; core < coreCount; ++core)
        banks_.emplace_back(curve, params, core, seed, cpmsPerCore);
}

void
ChipCpmArray::clearFaults()
{
    for (auto &bank : banks_)
        bank.clearFault();
}

double
ChipCpmArray::chipMeanRaw(const std::vector<Volts> &coreVoltages,
                          const std::vector<Hertz> &coreFrequencies) const
{
    panicIf(coreVoltages.size() != banks_.size() ||
            coreFrequencies.size() != banks_.size(),
            "per-core vector size mismatch");
    double sum = 0.0;
    size_t count = 0;
    for (size_t core = 0; core < banks_.size(); ++core) {
        sum += banks_[core].meanRaw(coreVoltages[core],
                                    coreFrequencies[core]) *
               double(banks_[core].size());
        count += banks_[core].size();
    }
    return sum / double(count);
}

} // namespace agsim::sensors
