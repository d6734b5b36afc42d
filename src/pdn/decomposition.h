/**
 * @file
 * On-chip voltage-drop decomposition record (paper Fig. 8 / Fig. 9).
 *
 * Every simulation step the engine attributes the gap between the VRM
 * setpoint and the at-transistor voltage to its four components; Fig. 9's
 * stacked-area bench and the telemetry layer both consume this record.
 */

#ifndef AGSIM_PDN_DECOMPOSITION_H
#define AGSIM_PDN_DECOMPOSITION_H

#include <string>

#include "common/units.h"

namespace agsim::pdn {

/**
 * One decomposition of total on-chip voltage drop, in volts.
 *
 * Components follow the paper's Fig. 8 ordering from the VRM inward:
 * loadline sag, passive IR drop (global + local folded together as the
 * paper does), typical-case di/dt ripple, worst-case di/dt droops.
 */
struct DropDecomposition
{
    Volts loadline = Volts{0.0};
    /** Shared (board/package/grid-trunk) IR component. */
    Volts irGlobal = Volts{0.0};
    /** This core's local grid component (incl. neighbour coupling). */
    Volts irLocal = Volts{0.0};
    Volts typicalDidt = Volts{0.0};
    Volts worstDidt = Volts{0.0};

    /** Total IR drop seen by the core. */
    Volts irDrop() const { return irGlobal + irLocal; }

    /** Passive components only (what limits adaptive guardbanding). */
    Volts passive() const { return loadline + irGlobal + irLocal; }

    /**
     * The share of passive drop visible to the VRM current sensor
     * (loadline + shared IR) — the paper's Fig. 10 x-axis.
     */
    Volts sharedPassive() const { return loadline + irGlobal; }

    /** Total drop from the VRM setpoint to the worst transient. */
    Volts total() const { return passive() + typicalDidt + worstDidt; }

    /** Steady drop (excludes worst-case transients). */
    Volts steady() const { return passive() + typicalDidt; }

    /** Component-wise sum. */
    DropDecomposition operator+(const DropDecomposition &o) const;

    /** Component-wise scale (used for averaging). */
    DropDecomposition scaled(double k) const;

    /** Human-readable one-liner in millivolts. */
    std::string toString() const;

    bool operator==(const DropDecomposition &) const = default;
};

} // namespace agsim::pdn

#endif // AGSIM_PDN_DECOMPOSITION_H
