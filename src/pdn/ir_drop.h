/**
 * @file
 * Board/package/on-chip IR-drop model.
 *
 * The paper (Fig. 7/8) distinguishes two resistive components past the
 * VRM loadline:
 *  - a *global* IR drop across the shared board/package/on-chip grid,
 *    proportional to total chip current, which hits all eight cores
 *    regardless of which cores are active (the "chip-wide global
 *    behaviour" of Sec. 4.2), and
 *  - a *local* per-core component, proportional to the core's own current,
 *    which makes a core's drop step up ~2% the moment that core itself is
 *    activated (the "localized behaviour" of Sec. 4.2).
 *
 * In addition, neighbouring cores couple weakly through the shared grid:
 * a fraction of each core's local drop leaks onto the others, strongest
 * between physically adjacent cores (cores are laid out 0-3 on the top
 * row and 4-7 on the bottom row, per the paper's floorplan reference).
 */

#ifndef AGSIM_PDN_IR_DROP_H
#define AGSIM_PDN_IR_DROP_H

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/units.h"

namespace agsim::pdn {

/** IR-drop model tunables. */
struct IrDropParams
{
    /** Shared (board + package + grid trunk) resistance. */
    Ohms globalResistance = Ohms{0.36e-3};
    /** Per-core local grid resistance. */
    Ohms localResistance = Ohms{2.00e-3};
    /** Fraction of a neighbour core's local drop that couples over. */
    double neighbourCoupling = 0.18;
    /** Fraction of a non-adjacent core's local drop that couples over. */
    double farCoupling = 0.06;
    /** Number of cores on the grid. */
    size_t coreCount = 8;
    /** Cores per floorplan row (POWER7+: 4 top, 4 bottom). */
    size_t coresPerRow = 4;
};

/**
 * Resistive drop computation for one chip's Vdd grid.
 */
class IrDropModel
{
  public:
    explicit IrDropModel(const IrDropParams &params = IrDropParams());

    const IrDropParams &params() const { return params_; }

    /** Global component for a total chip current. */
    Volts globalDrop(Amps chipCurrent) const;

    /**
     * Local component seen by `core` given every core's own current,
     * including cross-coupling from the other cores' local drops.
     * Accepts any contiguous view of coreCount currents.
     */
    Volts localDrop(size_t core, std::span<const Amps> coreCurrents) const;

    /**
     * Every core's local drop in one pass (out[i] == localDrop(i, ...)
     * exactly). The electrical solver needs all coreCount values per
     * iteration; one matrix sweep beats coreCount row calls.
     */
    void localDropInto(std::span<const Amps> coreCurrents,
                       std::span<Volts> out) const;

    /**
     * On-chip voltage at `core`: rail voltage minus global minus local
     * components.
     */
    Volts onChipVoltage(size_t core, Volts railVoltage, Amps chipCurrent,
                        std::span<const Amps> coreCurrents) const;

    /** Whether two cores are floorplan neighbours (same row, adjacent). */
    bool adjacent(size_t a, size_t b) const;

  private:
    IrDropParams params_;
    /**
     * Precomputed coupling weights: weights_[a * coreCount + b] is the
     * ohms of effective resistance core b's current contributes to core
     * a's local drop (localResistance on the diagonal, coupling-scaled
     * off it). localDrop is the hottest leaf of the electrical solver —
     * the adjacency arithmetic must not run per call.
     */
    std::vector<Ohms> weights_;
};

} // namespace agsim::pdn

#endif // AGSIM_PDN_IR_DROP_H
