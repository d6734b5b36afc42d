/**
 * @file
 * In-chip guardband safety monitor with graceful mode degradation.
 *
 * The adaptive modes (Secs. 2.1-2.2) are safe only while the CPM ->
 * DPLL -> firmware loop tells the truth; under sensor or actuator
 * faults (see src/fault/) the loop can hold the chip below the true
 * vmin without noticing. The SafetyMonitor is the independent watchdog
 * the paper's reviewers would ask for: it watches the *achieved* margin
 * every step, counts timing emergencies (effective voltage below vmin
 * at the committed frequency), and when emergencies exceed a budget
 * within a counting window it demotes the chip from its adaptive mode
 * back to StaticGuardband — trading efficiency for guaranteed margin.
 *
 * Degradation is graceful and hysteretic:
 *
 *     Monitoring --(budget exceeded)--> Demoted
 *     Demoted --(clean for rearmInterval * backoff^(n-1))--> Monitoring
 *     Demoted --(demotion count > maxRearms)--> Latched
 *
 * Each successive demotion multiplies the required clean time by
 * rearmBackoff, and after maxRearms re-arms the monitor latches the
 * chip in StaticGuardband permanently — a persistently lying sensor
 * must not be trusted again. Sparse emergencies (occasional worst-case
 * droops) are tolerated by the windowed budget: only a *sustained*
 * breach demotes.
 *
 * The monitor is a pure state machine over (emergency?, dt) inputs so
 * it is unit-testable without a chip; Chip::step() owns the margin
 * computation and applies the returned actions. The monitor holds its
 * parameters only: the machine's state is a SafetyMonitor::State the
 * caller owns (a chip keeps it in its ChipState) and observe() steps.
 */

#ifndef AGSIM_CHIP_SAFETY_MONITOR_H
#define AGSIM_CHIP_SAFETY_MONITOR_H

#include <cstdint>

#include "common/units.h"

namespace agsim::chip {

/** Safety-monitor tunables. */
struct SafetyMonitorParams
{
    /** Master switch; disabled = count emergencies but never demote. */
    bool enabled = true;
    /**
     * Emergencies within one counting window that trigger demotion.
     * Sized so sparse droop-induced dips (a few per second) never trip
     * it while a sustained undervoltage (every step) trips in
     * emergencyBudget steps.
     */
    int emergencyBudget = 8;
    /** Emergency counting window. */
    Seconds windowLength = Seconds{0.25};
    /**
     * How far below vmin the true margin must fall to count as an
     * emergency. The adaptive loop deliberately rides within a few mV
     * of vmin (residual CPM calibration error consumes most of the
     * calibrated margin), so transient ripple excursions a few mV deep
     * are its normal operating texture, not a hazard; injected faults
     * that matter (optimistic sensor bias, DAC under-delivery) drive
     * the margin tens of mV negative and clear this band easily.
     */
    Volts marginTolerance = Volts{10e-3};
    /** Clean (emergency-free) time demoted before the first re-arm. */
    Seconds rearmInterval = Seconds{1.0};
    /** Required clean time multiplier per successive demotion. */
    double rearmBackoff = 2.0;
    /** Re-arms allowed before latching in StaticGuardband (< 0 = never
     *  latch; 0 = latch on the first demotion). */
    int maxRearms = 2;
    /**
     * Fraction of accumulated clean time forfeited when an emergency
     * lands while Demoted. 1.0 (the historical behaviour) restarts the
     * clean clock from zero; smaller values keep part of the credit so
     * a single stray droop during a long quiet stretch does not push
     * re-arm out by a whole interval.
     */
    double demotedRestartFraction = 1.0;
    /**
     * Upper bound on the re-arm backoff multiplier
     * (rearmBackoff^(demotions-1)); 0 = uncapped (the historical
     * behaviour). When set it must be >= 1, and keeps repeated
     * demote/re-arm cycles from pushing the clean interval to
     * astronomical values when maxRearms < 0 (never latch).
     */
    double rearmBackoffCap = 0.0;

    /** Reject nonsensical values with a descriptive ConfigError. */
    void validate() const;
};

/** Monitor state (see file comment for the machine). */
enum class SafetyState
{
    /** Armed: counting emergencies against the budget. */
    Monitoring,
    /** Demoted to StaticGuardband; waiting out the clean interval. */
    Demoted,
    /** Permanently demoted (re-arm budget exhausted). */
    Latched,
};

/** Human-readable state name. */
const char *safetyStateName(SafetyState state);

/**
 * The watchdog state machine for one chip.
 */
class SafetyMonitor
{
  public:
    /** What the chip must do after an observation. */
    enum class Action
    {
        None,
        /** Switch to StaticGuardband and remember the previous mode. */
        Demote,
        /** Restore the mode that was active before demotion. */
        Rearm,
    };

    /**
     * The machine's state. A default State is a freshly armed monitor;
     * assigning one forgets all history (the chip does so when the
     * user commands a mode change: an explicit operator decision
     * overrides the watchdog's memory).
     */
    struct State
    {
        SafetyState state = SafetyState::Monitoring;
        /** Monitor time (sum of observed dt). */
        Seconds now = Seconds{0.0};
        Seconds windowStart = Seconds{0.0};
        Seconds cleanSince = Seconds{0.0};
        /** Emergencies in the current counting window. */
        int windowEmergencies = 0;
        /** Emergencies since the last reset (any mode). */
        int64_t totalEmergencies = 0;
        /** Demotions since the last reset. */
        int64_t demotions = 0;
        /** Re-arms since the last reset. */
        int64_t rearms = 0;
        /** Time of the most recent demotion (-1 if none). */
        Seconds lastDemotionAt = Seconds{-1.0};

        bool operator==(const State &) const = default;
    };

    explicit SafetyMonitor(const SafetyMonitorParams &params =
                               SafetyMonitorParams());

    const SafetyMonitorParams &params() const { return params_; }

    /**
     * Feed one simulation step.
     *
     * @param state The machine to advance.
     * @param emergency Whether any core saw a timing emergency.
     * @param adaptiveMode Whether the chip is in a demotable (adaptive)
     *        mode right now. Emergencies are always counted; demotion
     *        only fires from adaptive modes.
     * @param dt Step length.
     * @return Action the chip must apply (effective next step).
     */
    Action observe(State &state, bool emergency, bool adaptiveMode,
                   Seconds dt) const;

    /**
     * Full clean interval the current demotion must wait out (re-arm
     * backoff applied); zero while Monitoring, negative once Latched.
     */
    Seconds requiredCleanInterval(const State &state) const;

    /**
     * Clean time still owed before the next re-arm attempt: zero while
     * Monitoring, the remaining clean interval while Demoted (restored
     * to the full interval by any emergency), negative while Latched
     * (no budget will ever re-arm the chip). This is the scheduler's
     * "how long until this chip might come back" signal.
     */
    Seconds rearmBudget(const State &state) const;

  private:
    /** rearmBackoff^(demotions-1), clamped to rearmBackoffCap. */
    double backoffMultiplier(const State &state) const;

    SafetyMonitorParams params_;
};

} // namespace agsim::chip

#endif // AGSIM_CHIP_SAFETY_MONITOR_H
