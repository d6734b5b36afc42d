/**
 * @file
 * Socket placement policies: workload consolidation vs loadline
 * borrowing (paper Sec. 5.1).
 *
 * Conventional wisdom consolidates threads onto one socket so the other
 * can idle/sleep; on an adaptive-guardbanding platform that concentrates
 * all current through one loadline and forfeits undervolting headroom.
 * Loadline borrowing instead balances threads across sockets and
 * power-gates the unneeded cores on every socket, so each socket keeps
 * the same instant-response core budget while each loadline carries less
 * current (Fig. 11).
 *
 * A PlacementPlan fixes, for a given thread count and powered-core
 * budget, (a) where each thread runs and (b) which cores are power
 * gated; the system layer executes it verbatim.
 */

#ifndef AGSIM_CORE_PLACEMENT_H
#define AGSIM_CORE_PLACEMENT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "chip/chip_health.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "system/simulation.h"

namespace agsim::core {

/** Socket placement policy. */
enum class PlacementPolicy
{
    /** All threads on one socket; other sockets fully gated. */
    Consolidate,
    /** Threads balanced across sockets; spare cores gated everywhere. */
    LoadlineBorrow,
};

/** Human-readable policy name. */
const char *placementPolicyName(PlacementPolicy policy);

/** A complete placement decision. */
struct PlacementPlan
{
    /** Thread -> (socket, core). */
    std::vector<system::ThreadPlacement> threads;
    /** Cores to power-gate: (socket, core). */
    std::vector<std::pair<size_t, size_t>> gatedCores;
    /** Cores left powered-on idle (responsiveness reserve). */
    std::vector<std::pair<size_t, size_t>> idleCores;
};

/**
 * Build a placement plan.
 *
 * @param policy Consolidate or LoadlineBorrow.
 * @param socketCount Sockets in the server.
 * @param coresPerSocket Cores per socket.
 * @param threads Threads to place (<= poweredCoreBudget).
 * @param poweredCoreBudget Total cores that must stay powered on
 *        (instant-response reserve; the paper keeps 8 of 16 on to cover
 *        utilization up to 50%). Remaining cores are power gated.
 */
PlacementPlan makePlacementPlan(PlacementPolicy policy, size_t socketCount,
                                size_t coresPerSocket, size_t threads,
                                size_t poweredCoreBudget);

/**
 * Largest-remainder split of `count` over `weights`: share i is
 * floor(count * w_i / sum(w)), plus one for the largest fractional
 * remainders (ties to the lower index), so the shares sum to `count`
 * exactly; all shares are zero when no weight is positive. With
 * integer capacities as weights and count <= sum(capacity), no share
 * exceeds its capacity. FleetService routes queries with it and
 * RecoveryManager apportions fleet threads with it.
 */
std::vector<uint64_t> splitByWeight(uint64_t count,
                                    const std::vector<double> &weights);

/** Tunables for health-aware placement (see HealthAwarePlacer). */
struct HealthAwareParams
{
    /** Master switch; disabled = plain loadline borrowing. */
    bool enabled = true;
    /**
     * Extra throughput a healthy adaptive socket is credited over a
     * demoted (StaticGuardband) one when lightly occupied. Defaults to
     * the measured single-core overclock boost (~10%, Fig. 4); the
     * credit decays with occupancy because the shared rail sags as
     * cores activate (9.7% at one active core down to 3.6% at eight).
     */
    double adaptiveHeadroom = 0.10;
    /**
     * How much of the headroom credit is gone at full occupancy
     * (0 = flat credit, 1 = no credit with every core active).
     */
    double headroomDecay = 0.6;
    /**
     * Re-arm hysteresis: consecutive healthy observations required
     * before a previously demoted socket is trusted with adaptive
     * headroom again. Keeps placement from flapping when a chip
     * re-arms, re-trips, and re-arms again (the SafetyMonitor's
     * backoff makes that cycle common under persistent faults).
     */
    int rearmConfidence = 2;
    /**
     * Distrust a socket whose latched droop depth exceeds this even
     * while its watchdog still reports Monitoring — a storm-struck
     * chip is a demotion waiting to happen. Zero disables the check.
     */
    Volts droopDepthCeiling = Volts{0.0};

    /** Reject nonsensical values with a descriptive ConfigError. */
    void validate() const;
};

/**
 * Quantum-by-quantum thread apportionment over per-socket safety
 * telemetry (the scheduler half of the ROADMAP's fault-aware loop).
 *
 * Each quantum the placer reads every socket's ChipHealthView and
 * greedily assigns threads to the socket with the best marginal speed:
 * trusted (healthy, adaptive) sockets are credited with the decaying
 * overclock headroom, demoted/latched/storm-struck ones count at
 * static-guardband speed only. The result reproduces loadline
 * borrowing when the fleet is healthy, migrates work off a demoted
 * socket while its re-arm budget runs, and converges a permanently
 * latched socket's assignment to its static-guardband share of the
 * fleet under load. Trust is hysteretic (rearmConfidence) so a
 * demote/re-arm cycle causes at most one migration.
 *
 * Observability: every decision bumps `placement.health.decisions`,
 * migrations bump `placement.health.migrations`, and (when tracing)
 * each decision emits a PlacementDecision trace event with the reason.
 */
class HealthAwarePlacer
{
  public:
    /** One quantum's placement decision. */
    struct Decision
    {
        /** Threads assigned per socket. */
        std::vector<size_t> threadsPerSocket;
        /** Expected MIPS share per socket (speed-weighted). */
        std::vector<double> share;
        /** Whether each socket was trusted with adaptive headroom. */
        std::vector<bool> trusted;
        /** Threads moved off their previous socket this quantum. */
        size_t migrated = 0;
        /** Decision sequence number (0-based). */
        int64_t quantum = 0;
        /** Human-readable justification (also the trace detail). */
        std::string reason;
    };

    explicit HealthAwarePlacer(const HealthAwareParams &params =
                                   HealthAwareParams());

    const HealthAwareParams &params() const { return params_; }

    /**
     * Decide this quantum's per-socket thread counts: updateTrust()
     * then assign().
     *
     * @param health One view per socket, polled between quanta.
     * @param threads Threads to place (<= sockets x coresPerSocket).
     * @param coresPerSocket Cores per socket.
     * @param now Simulation time stamped on the trace event.
     */
    Decision place(const std::vector<chip::ChipHealthView> &health,
                   size_t threads, size_t coresPerSocket,
                   Seconds now = Seconds{0.0});

    /**
     * The trust half of place(): advance each socket's healthy streak
     * and trust flag from this quantum's views. Returns whether any
     * trust flag flipped. While none flips, assign() with an unchanged
     * thread count repeats the previous decision, so a caller that
     * still holds that decision may skip it.
     */
    bool updateTrust(const std::vector<chip::ChipHealthView> &health);

    /**
     * The assignment half of place(): apportion `threads` over the
     * current trust flags, count migrations, bump the decision counter
     * and emit the PlacementDecision event. Needs updateTrust() first.
     */
    Decision assign(const std::vector<chip::ChipHealthView> &health,
                    size_t threads, size_t coresPerSocket, Seconds now);

    /** Threads moved across sockets since construction. */
    int64_t migrations() const { return migrations_; }

    /** Decisions made since construction. */
    int64_t decisions() const { return decisions_; }

    /** Forget placement history (assignments and trust streaks). */
    void reset();

  private:
    /** Healthy this quantum: watchdog fine and not storm-struck. */
    bool healthyNow(const chip::ChipHealthView &view) const;

    /** Speed credited to the k-th thread (1-based) on a socket. */
    double marginalSpeed(bool trusted, size_t k,
                         size_t coresPerSocket) const;

    HealthAwareParams params_;
    std::vector<size_t> lastAssignment_;
    std::vector<int> healthyStreak_;
    std::vector<char> trusted_;
    int64_t decisions_ = 0;
    int64_t migrations_ = 0;
    obs::Counter *obsDecisions_ = nullptr;
    obs::Counter *obsMigrations_ = nullptr;
};

/**
 * Expand a HealthAwarePlacer decision into a full PlacementPlan:
 * threads fill each socket's low-numbered cores, the remaining
 * powered-core budget spreads round-robin (trusted sockets first so
 * the instant-response reserve sits where the headroom is), and
 * everything else power-gates.
 */
PlacementPlan makeHealthAwarePlacementPlan(
    const HealthAwarePlacer::Decision &decision, size_t coresPerSocket,
    size_t poweredCoreBudget);

} // namespace agsim::core

#endif // AGSIM_CORE_PLACEMENT_H
