#include "chip/safety_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace agsim::chip {

const char *
safetyStateName(SafetyState state)
{
    switch (state) {
      case SafetyState::Monitoring: return "monitoring";
      case SafetyState::Demoted: return "demoted";
      case SafetyState::Latched: return "latched";
    }
    return "?";
}

void
SafetyMonitorParams::validate() const
{
    fatalIf(emergencyBudget < 1,
            "safety monitor emergency budget must be at least 1");
    fatalIf(windowLength <= Seconds{0.0},
            "safety monitor window length must be positive");
    fatalIf(rearmInterval <= Seconds{0.0},
            "safety monitor re-arm interval must be positive");
    fatalIf(rearmBackoff < 1.0,
            "safety monitor re-arm backoff must be at least 1 "
            "(hysteresis cannot shrink the clean interval)");
    fatalIf(marginTolerance < Volts{0.0},
            "safety monitor margin tolerance cannot be negative");
    fatalIf(demotedRestartFraction < 0.0 || demotedRestartFraction > 1.0,
            "safety monitor demoted restart fraction must be in [0, 1]");
    fatalIf(rearmBackoffCap != 0.0 && rearmBackoffCap < 1.0,
            "safety monitor re-arm backoff cap must be 0 (uncapped) "
            "or at least 1");
}

SafetyMonitor::SafetyMonitor(const SafetyMonitorParams &params)
    : params_(params)
{
    params_.validate();
}

SafetyMonitor::Action
SafetyMonitor::observe(State &m, bool emergency, bool adaptiveMode,
                       Seconds dt) const
{
    panicIf(dt <= Seconds{0.0}, "safety monitor step must be positive");
    m.now += dt;
    if (emergency)
        ++m.totalEmergencies;

    switch (m.state) {
      case SafetyState::Monitoring: {
        if (!adaptiveMode) {
            // Nothing to demote: keep counters honest but stay quiet.
            m.windowEmergencies = 0;
            m.windowStart = m.now;
            return Action::None;
        }
        if (m.now - m.windowStart >= params_.windowLength) {
            m.windowStart = m.now;
            m.windowEmergencies = 0;
        }
        if (!emergency)
            return Action::None;
        ++m.windowEmergencies;
        if (!params_.enabled ||
            m.windowEmergencies < params_.emergencyBudget) {
            return Action::None;
        }
        ++m.demotions;
        m.lastDemotionAt = m.now;
        m.cleanSince = m.now;
        m.windowEmergencies = 0;
        m.state = (params_.maxRearms >= 0 &&
                   m.demotions > params_.maxRearms)
                      ? SafetyState::Latched
                      : SafetyState::Demoted;
        return Action::Demote;
      }

      case SafetyState::Demoted: {
        // An emergency while demoted (e.g. a droop storm deep enough to
        // breach even the static guardband) forfeits
        // demotedRestartFraction of the accumulated clean time (1.0 =
        // restart the clean clock from zero).
        if (emergency) {
            m.cleanSince = m.now - (m.now - m.cleanSince) *
                                       (1.0 - params_.demotedRestartFraction);
            return Action::None;
        }
        const Seconds required =
            params_.rearmInterval * backoffMultiplier(m);
        if (m.now - m.cleanSince < required)
            return Action::None;
        ++m.rearms;
        m.state = SafetyState::Monitoring;
        m.windowStart = m.now;
        m.windowEmergencies = 0;
        return Action::Rearm;
      }

      case SafetyState::Latched:
        return Action::None;
    }
    return Action::None;
}

double
SafetyMonitor::backoffMultiplier(const State &m) const
{
    double multiplier =
        std::pow(params_.rearmBackoff, double(m.demotions - 1));
    if (params_.rearmBackoffCap > 0.0)
        multiplier = std::min(multiplier, params_.rearmBackoffCap);
    return multiplier;
}

Seconds
SafetyMonitor::requiredCleanInterval(const State &m) const
{
    switch (m.state) {
      case SafetyState::Monitoring:
        return Seconds{0.0};
      case SafetyState::Demoted:
        return params_.rearmInterval * backoffMultiplier(m);
      case SafetyState::Latched:
        return Seconds{-1.0};
    }
    return Seconds{0.0};
}

Seconds
SafetyMonitor::rearmBudget(const State &m) const
{
    if (m.state != SafetyState::Demoted)
        return requiredCleanInterval(m);
    const Seconds remaining = requiredCleanInterval(m) -
                              (m.now - m.cleanSince);
    return std::max(remaining, Seconds{0.0});
}

} // namespace agsim::chip
