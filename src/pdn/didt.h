/**
 * @file
 * Stochastic di/dt (inductive) noise model.
 *
 * The paper separates di/dt noise into (Fig. 8 / Sec. 4.3):
 *  - *typical-case* ripple: the steady hum of current fluctuation from
 *    regular microarchitectural activity. Measured to SHRINK as more
 *    cores become active, because activity staggers across cores and the
 *    shared PDN averages it out ("noise smoothing").
 *  - *worst-case* droops: rare, deep sags when current surges across
 *    cores randomly align (synchronous behaviour). Measured to GROW
 *    slightly with core count.
 *
 * Both behaviours are first-class here: typical amplitude scales as
 * 1/sqrt(active cores); worst-case droop depth grows logarithmically with
 * active cores and arrives as a Poisson process whose depth is what a
 * sticky-mode CPM read captures within its 32 ms window.
 */

#ifndef AGSIM_PDN_DIDT_H
#define AGSIM_PDN_DIDT_H

#include <cstddef>
#include <span>

#include "common/rng.h"
#include "common/units.h"

namespace agsim::pdn {

/** di/dt model tunables. */
struct DidtParams
{
    /** Mean worst-case droop arrival rate with one active core (per s). */
    double droopRatePerSecond = 4.0;
    /** Worst-case alignment growth per doubling of active cores. */
    double alignmentGrowth = 0.18;
    /** Arrival-rate growth per additional active core (alignment odds). */
    double ratePerExtraCore = 0.35;
    /** Lognormal-ish jitter on droop depth (sigma as a fraction). */
    double depthJitter = 0.15;
    /** Jitter on the instantaneous typical ripple sample. */
    double rippleJitter = 0.20;
};

/** One step's noise outcome for a chip. */
struct DidtSample
{
    /** Instantaneous typical-case ripple depth (margin loss), volts. */
    Volts typicalNow = Volts{0.0};
    /** Mean typical-case ripple depth this step, volts. */
    Volts typicalMean = Volts{0.0};
    /** Deepest worst-case droop that occurred this step (0 if none). */
    Volts worstDroop = Volts{0.0};
    /** Number of worst-case droop events this step. */
    int droopEvents = 0;
};

/**
 * Chip-level di/dt noise generator.
 *
 * The noise is chip-wide (the POWER7+ shares one Vdd PDN across cores to
 * smooth noise, per Sec. 2.1), so one sample applies to every core; the
 * small per-core spatial spread is handled by the CPM variation model.
 */
class DidtModel
{
  public:
    explicit DidtModel(const DidtParams &params = DidtParams());

    const DidtParams &params() const { return params_; }

    /**
     * Mean typical-case ripple amplitude for the current load.
     *
     * @param typicalAmps Per-core typical-ripple amplitude of whatever is
     *        running there (0 for idle/gated cores).
     * @return Smoothed chip-level ripple depth.
     */
    Volts typicalLevel(std::span<const Volts> typicalAmps) const;

    /**
     * Worst-case droop depth for the current load, excluding jitter.
     *
     * @param worstAmps Per-core worst-droop amplitude (0 when idle).
     */
    Volts worstDepth(std::span<const Volts> worstAmps) const;

    /**
     * Advance one step: draw the instantaneous ripple and any worst-case
     * droop arrivals within dt from the caller's stream (the chip keeps
     * it in its ChipState).
     *
     * dt need not be one tick: the arrival process is Poisson, so a
     * span-long step draws Poisson(rate * span) events in one call —
     * the aggregate the fast-forward path relies on.
     *
     * @param rateScale Multiplier on the droop arrival rate (fault
     *        injection's droop storms; 1.0 = nominal). Depth scaling is
     *        applied by the caller through the amplitude vectors.
     */
    DidtSample step(Rng &rng, std::span<const Volts> typicalAmps,
                    std::span<const Volts> worstAmps, Seconds dt,
                    double rateScale = 1.0) const;

  private:
    static size_t activeCount(std::span<const Volts> amps);

    DidtParams params_;
};

} // namespace agsim::pdn

#endif // AGSIM_PDN_DIDT_H
