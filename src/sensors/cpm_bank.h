/**
 * @file
 * Per-core CPM bank and the chip-wide 40-CPM array.
 *
 * POWER7+ places 5 CPMs in different units of each core (40 per chip) so
 * spatial variation within a core is observable. Every cycle the lowest
 * CPM value in a core is what the DPLL compares against the calibration
 * position (paper Sec. 2.2); agsim mirrors that with minRead().
 *
 * Process variation personality: some cores have tight CPM agreement and
 * others spread visibly (paper Fig. 6b attributes this to process
 * variation and calibration error); the bank draws per-CPM variation from
 * a per-core variance class.
 */

#ifndef AGSIM_SENSORS_CPM_BANK_H
#define AGSIM_SENSORS_CPM_BANK_H

#include <cstddef>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "power/vf_curve.h"
#include "sensors/cpm.h"

namespace agsim::sensors {

/**
 * Injected sensor-fault state for one core's CPM bank (see src/fault/).
 *
 * Value semantics: the fault subsystem computes the active state each
 * step and the chip copies it into the bank; a default-constructed
 * CpmFault means a healthy bank.
 */
struct CpmFault
{
    /** Bank is dark: every read pegs at positions-1, and the control
     *  path believes the detector's maximal margin. */
    bool dropout = false;
    /** >= 0: every read returns this position and the control path
     *  believes the corresponding (constant) voltage. */
    int stuckPosition = -1;
    /** Volts of margin the bank over-reports (optimistic when > 0). */
    Volts biasVolts = Volts{0.0};

    bool any() const
    {
        return dropout || stuckPosition >= 0 || biasVolts != Volts{0.0};
    }
};

/**
 * The 5 CPMs of one core.
 */
class CpmBank
{
  public:
    /**
     * @param curve Shared V/f model (not owned).
     * @param params CPM constants.
     * @param coreId Core index (selects the variance class).
     * @param seed Chip-level seed freezing the variation personality.
     * @param cpmsPerCore Number of CPM instances (POWER7+: 5).
     */
    CpmBank(const power::VfCurve *curve, const CpmParams &params,
            size_t coreId, uint64_t seed, size_t cpmsPerCore = 5);

    /** Number of CPM instances. */
    size_t size() const { return cpms_.size(); }

    /** Read a single CPM. */
    int read(size_t index, Volts v, Hertz f) const;

    /** Lowest reading across the bank (what the DPLL consumes). */
    int minRead(Volts v, Hertz f) const;

    /** Mean (fractional) position across the bank. */
    double meanRaw(Volts v, Hertz f) const;

    /** Per-instance sensitivity at frequency f (for Fig. 6b). */
    Volts voltsPerBit(size_t index, Hertz f) const;

    /** Mean sensitivity across the bank at frequency f. */
    Volts meanVoltsPerBit(Hertz f) const;

    /**
     * The control-path voltage bias of this core: the DPLL follows the
     * *lowest* CPM, so the most pessimistic residual calibration error
     * in the bank governs. Includes any injected bias fault.
     */
    Volts controlBias(Hertz f) const;

    /**
     * The voltage the control loop *believes* the core sits at: the
     * true voltage shifted by the bank's calibration residual — or, if
     * the bank is stuck/dark, the constant voltage implied by the faulty
     * reading (the loop cannot tell a pegged detector from real margin).
     */
    Volts controlVoltage(Volts vTrue, Hertz f) const;

    /** @name Fault-injection point (see src/fault/) */
    /// @{
    void setFault(const CpmFault &fault) { fault_ = fault; }
    void clearFault() { fault_ = CpmFault(); }
    const CpmFault &fault() const { return fault_; }
    /** Whether the loop is blind to transient droops (dark/stuck bank). */
    bool blind() const
    {
        return fault_.dropout || fault_.stuckPosition >= 0;
    }
    /// @}

    /** Access an instance (e.g. for voltage inversion). */
    const Cpm &cpm(size_t index) const;

    /**
     * Memoize the bank's frequency-dependent terms at f: the
     * sensitivity scaling (fref/f)^exponent and the lowest control
     * bias before any fault bias. The chip memoizes its DVFS target on
     * the stepping thread: the control path always reads there, and the
     * sensing path does whenever the DPLL runs at the target. Const
     * reads at any other frequency compute the same terms afresh, so no
     * result depends on what is memoized.
     */
    void memoize(Hertz f);

  private:
    /** Frequency-dependent terms of the bank at memoize()'s f. */
    struct FrequencyTerms
    {
        /** The exact frequency the terms belong to (NaN: empty). */
        Hertz f = Hertz{std::numeric_limits<double>::quiet_NaN()};
        double scaling = 0.0;
        Volts lowestBias;
    };

    double scalingAt(Hertz f) const;
    Volts lowestBiasAt(double scaling) const;

    std::vector<Cpm> cpms_;
    CpmFault fault_;
    FrequencyTerms memo_;
};

/**
 * All CPM banks of one chip (8 cores x 5 CPMs = 40).
 */
class ChipCpmArray
{
  public:
    ChipCpmArray(const power::VfCurve *curve, const CpmParams &params,
                 size_t coreCount, uint64_t seed, size_t cpmsPerCore = 5);

    size_t coreCount() const { return banks_.size(); }

    const CpmBank &bank(size_t core) const
    {
        if (core >= banks_.size())
            panic("core index out of range");
        return banks_[core];
    }

    /** Mutable access (fault injection and the frequency memo). */
    CpmBank &bank(size_t core)
    {
        if (core >= banks_.size())
            panic("core index out of range");
        return banks_[core];
    }

    /** Clear injected fault state on every bank. */
    void clearFaults();

    /**
     * Chip-wide mean raw position given per-core voltages and
     * frequencies (the paper's Fig. 6a averages all 40 CPMs).
     */
    double chipMeanRaw(const std::vector<Volts> &coreVoltages,
                       const std::vector<Hertz> &coreFrequencies) const;

  private:
    std::vector<CpmBank> banks_;
};

} // namespace agsim::sensors

#endif // AGSIM_SENSORS_CPM_BANK_H
