#include "core/placement.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "obs/observability.h"

namespace agsim::core {

const char *
placementPolicyName(PlacementPolicy policy)
{
    switch (policy) {
      case PlacementPolicy::Consolidate: return "consolidate";
      case PlacementPolicy::LoadlineBorrow: return "loadline-borrow";
    }
    return "?";
}

PlacementPlan
makePlacementPlan(PlacementPolicy policy, size_t socketCount,
                  size_t coresPerSocket, size_t threads,
                  size_t poweredCoreBudget)
{
    fatalIf(socketCount == 0 || coresPerSocket == 0,
            "placement needs a non-empty machine");
    fatalIf(threads == 0, "placement needs at least one thread");
    fatalIf(poweredCoreBudget < threads,
            "powered-core budget smaller than the thread count");
    fatalIf(poweredCoreBudget > socketCount * coresPerSocket,
            "powered-core budget exceeds the machine");

    PlacementPlan plan;

    // Decide how many cores stay powered on per socket.
    std::vector<size_t> poweredOn(socketCount, 0);
    if (policy == PlacementPolicy::Consolidate) {
        // Fill sockets in order: socket 0 first, spill only if needed.
        size_t remaining = poweredCoreBudget;
        for (size_t s = 0; s < socketCount && remaining > 0; ++s) {
            poweredOn[s] = std::min(coresPerSocket, remaining);
            remaining -= poweredOn[s];
        }
    } else {
        // Balance the powered budget across all sockets.
        for (size_t i = 0; i < poweredCoreBudget; ++i)
            ++poweredOn[i % socketCount];
    }

    // Place threads onto the powered cores, socket-major for
    // consolidation and round-robin for borrowing.
    std::vector<size_t> used(socketCount, 0);
    if (policy == PlacementPolicy::Consolidate) {
        size_t placed = 0;
        for (size_t s = 0; s < socketCount && placed < threads; ++s) {
            while (used[s] < poweredOn[s] && placed < threads) {
                plan.threads.push_back(system::ThreadPlacement{s, used[s]});
                ++used[s];
                ++placed;
            }
        }
    } else {
        size_t placed = 0;
        size_t socket = 0;
        while (placed < threads) {
            if (used[socket] < poweredOn[socket]) {
                plan.threads.push_back(
                    system::ThreadPlacement{socket, used[socket]});
                ++used[socket];
                ++placed;
            }
            socket = (socket + 1) % socketCount;
        }
    }

    // Remaining powered cores idle; everything else gates off.
    for (size_t s = 0; s < socketCount; ++s) {
        for (size_t c = 0; c < coresPerSocket; ++c) {
            if (c < used[s])
                continue; // runs a thread
            if (c < poweredOn[s])
                plan.idleCores.emplace_back(s, c);
            else
                plan.gatedCores.emplace_back(s, c);
        }
    }
    return plan;
}

std::vector<uint64_t>
splitByWeight(uint64_t count, const std::vector<double> &weights)
{
    std::vector<uint64_t> out(weights.size(), 0);
    double total = 0.0;
    for (double w : weights)
        total += w;
    if (count == 0 || total <= 0.0)
        return out;

    std::vector<std::pair<double, size_t>> remainders;
    remainders.reserve(weights.size());
    uint64_t assigned = 0;
    for (size_t i = 0; i < weights.size(); ++i) {
        const double exact = double(count) * weights[i] / total;
        const uint64_t base = uint64_t(std::floor(exact));
        out[i] = base;
        assigned += base;
        remainders.emplace_back(exact - double(base), i);
    }
    std::sort(remainders.begin(), remainders.end(),
              [](const auto &a, const auto &b) {
                  if (a.first != b.first)
                      return a.first > b.first;
                  return a.second < b.second;
              });
    // The remainders sum to the leftover and each is below one, so one
    // pass over the positive weights always places all of it.
    uint64_t leftover = count - assigned;
    for (size_t k = 0; k < remainders.size() && leftover > 0; ++k) {
        if (weights[remainders[k].second] <= 0.0)
            continue;
        ++out[remainders[k].second];
        --leftover;
    }
    return out;
}

void
HealthAwareParams::validate() const
{
    fatalIf(adaptiveHeadroom < 0.0,
            "health-aware placement headroom cannot be negative");
    fatalIf(headroomDecay < 0.0 || headroomDecay > 1.0,
            "health-aware headroom decay must be within [0, 1]");
    fatalIf(rearmConfidence < 1,
            "health-aware re-arm confidence must be at least 1");
    fatalIf(droopDepthCeiling < Volts{0.0},
            "health-aware droop ceiling cannot be negative");
}

HealthAwarePlacer::HealthAwarePlacer(const HealthAwareParams &params)
    : params_(params)
{
    params_.validate();
    obs::MetricRegistry &reg = obs::registry();
    obsDecisions_ = &reg.counter("placement.health.decisions");
    obsMigrations_ = &reg.counter("placement.health.migrations");
}

double
HealthAwarePlacer::marginalSpeed(bool trusted, size_t k,
                                 size_t coresPerSocket) const
{
    if (!trusted)
        return 1.0;
    // The boost the k-th thread still gets: full headroom with one
    // core active, decayed linearly toward (1 - decay) x headroom at
    // full occupancy — the shared-rail sag of Fig. 4.
    const double span = coresPerSocket > 1
                            ? double(k - 1) / double(coresPerSocket - 1)
                            : 0.0;
    return 1.0 + params_.adaptiveHeadroom *
                     (1.0 - params_.headroomDecay * span);
}

bool
HealthAwarePlacer::healthyNow(const chip::ChipHealthView &view) const
{
    const bool stormStruck =
        params_.droopDepthCeiling > Volts{0.0} &&
        view.latchedDroopDepth > params_.droopDepthCeiling;
    return view.healthy() && !stormStruck;
}

HealthAwarePlacer::Decision
HealthAwarePlacer::place(const std::vector<chip::ChipHealthView> &health,
                         size_t threads, size_t coresPerSocket,
                         Seconds now)
{
    updateTrust(health);
    Decision decision = assign(health, threads, coresPerSocket);
    if (obs::tracingEnabled()) {
        obs::TraceEvent event;
        event.kind = obs::TraceKind::PlacementDecision;
        event.simTime = now;
        event.a = double(decision.migrated);
        event.b = double(std::count(decision.trusted.begin(),
                                    decision.trusted.end(), true));
        event.detail = decision.reason;
        obs::emit(std::move(event));
    }
    return decision;
}

bool
HealthAwarePlacer::updateTrust(
    const std::vector<chip::ChipHealthView> &health)
{
    const size_t sockets = health.size();
    fatalIf(sockets == 0, "health-aware placement needs a non-empty machine");
    const bool first = trusted_.empty();
    if (first) {
        healthyStreak_.assign(sockets, 0);
        trusted_.assign(sockets, 0);
    }
    fatalIf(trusted_.size() != sockets,
            "health-aware placement socket count changed");

    // Re-arm hysteresis: trust drops the moment a socket looks
    // unhealthy, and returns only after rearmConfidence consecutive
    // healthy observations (immediately on the first quantum: there is
    // no flapping to damp yet).
    bool flipped = false;
    for (size_t s = 0; s < sockets; ++s) {
        const chip::ChipHealthView &view = health[s];
        const char before = trusted_[s];
        if (healthyNow(view)) {
            ++healthyStreak_[s];
            if (trusted_[s] == 0 &&
                (first || healthyStreak_[s] >= params_.rearmConfidence))
                trusted_[s] = 1;
        } else {
            healthyStreak_[s] = 0;
            trusted_[s] = 0;
        }
        // Only sockets *commanding* an adaptive mode carry headroom: a
        // fleet pinned to StaticGuardband is uniformly speed 1.0.
        if (!params_.enabled || !view.adaptiveCommanded())
            trusted_[s] = 0;
        flipped = flipped || trusted_[s] != before;
    }
    return flipped;
}

HealthAwarePlacer::Decision
HealthAwarePlacer::assign(const std::vector<chip::ChipHealthView> &health,
                          size_t threads, size_t coresPerSocket)
{
    const size_t sockets = health.size();
    fatalIf(coresPerSocket == 0,
            "health-aware placement needs a non-empty machine");
    fatalIf(threads == 0, "health-aware placement needs threads");
    fatalIf(threads > sockets * coresPerSocket,
            "health-aware placement has more threads than cores");
    fatalIf(trusted_.size() != sockets,
            "health-aware placement needs a trust update first");
    const bool first = lastAssignment_.empty();
    if (first)
        lastAssignment_.assign(sockets, 0);

    // Classify the distrust for the decision's reason string.
    size_t healthySockets = 0;
    int64_t demotedSocket = -1;
    int64_t latchedSocket = -1;
    int64_t awaitingSocket = -1;
    for (size_t s = 0; s < sockets; ++s) {
        const chip::ChipHealthView &view = health[s];
        if (trusted_[s] != 0) {
            ++healthySockets;
        } else if (params_.enabled && view.adaptiveCommanded()) {
            if (view.state == chip::SafetyState::Latched)
                latchedSocket = int64_t(s);
            else if (!healthyNow(view))
                demotedSocket = int64_t(s);
            else
                awaitingSocket = int64_t(s);
        }
    }

    // Greedy marginal-speed assignment: each thread goes to the socket
    // whose next core is fastest; ties break toward the emptier socket
    // (loadline borrowing), then the lower index (determinism).
    Decision decision;
    decision.threadsPerSocket.assign(sockets, 0);
    decision.trusted.assign(sockets, false);
    for (size_t s = 0; s < sockets; ++s)
        decision.trusted[s] = trusted_[s] != 0;
    for (size_t t = 0; t < threads; ++t) {
        size_t best = sockets;
        double bestSpeed = -1.0;
        for (size_t s = 0; s < sockets; ++s) {
            const size_t count = decision.threadsPerSocket[s];
            if (count >= coresPerSocket)
                continue;
            const double speed = marginalSpeed(trusted_[s] != 0,
                                               count + 1, coresPerSocket);
            const bool better =
                speed > bestSpeed + 1e-12 ||
                (speed > bestSpeed - 1e-12 && best < sockets &&
                 count < decision.threadsPerSocket[best]);
            if (best == sockets || better) {
                best = s;
                bestSpeed = speed;
            }
        }
        panicIf(best == sockets, "health-aware placement ran out of cores");
        ++decision.threadsPerSocket[best];
    }

    // Expected MIPS share: each socket's speed-weighted thread count.
    decision.share.assign(sockets, 0.0);
    double totalSpeed = 0.0;
    for (size_t s = 0; s < sockets; ++s) {
        double speed = 0.0;
        for (size_t k = 1; k <= decision.threadsPerSocket[s]; ++k)
            speed += marginalSpeed(trusted_[s] != 0, k, coresPerSocket);
        decision.share[s] = speed;
        totalSpeed += speed;
    }
    if (totalSpeed > 0.0) {
        for (double &share : decision.share)
            share /= totalSpeed;
    }

    // Migration accounting: threads that left their previous socket.
    if (!first) {
        for (size_t s = 0; s < sockets; ++s) {
            if (lastAssignment_[s] > decision.threadsPerSocket[s])
                decision.migrated +=
                    lastAssignment_[s] - decision.threadsPerSocket[s];
        }
    }
    lastAssignment_ = decision.threadsPerSocket;
    decision.quantum = decisions_++;
    migrations_ += int64_t(decision.migrated);

    std::ostringstream reason;
    if (!params_.enabled) {
        reason << "health awareness disabled; borrowing";
    } else if (healthySockets == sockets) {
        reason << "all " << sockets << " sockets healthy; borrowing";
    } else if (latchedSocket >= 0) {
        reason << "socket " << latchedSocket
               << " latched; rebalanced to static share";
    } else if (demotedSocket >= 0) {
        const chip::ChipHealthView &view = health[size_t(demotedSocket)];
        reason << "steering around socket " << demotedSocket;
        if (view.state == chip::SafetyState::Demoted)
            reason << " (rearm in "
                   << toMilliSeconds(view.rearmBudget) << " ms)";
        else
            reason << " (unhealthy)";
    } else if (awaitingSocket >= 0) {
        reason << "steering around socket " << awaitingSocket
               << " (awaiting rearm confidence)";
    } else {
        reason << "no adaptive headroom commanded; borrowing";
    }
    if (decision.migrated > 0)
        reason << "; migrated " << decision.migrated;
    decision.reason = reason.str();

    obsDecisions_->add();
    if (decision.migrated > 0)
        obsMigrations_->add(int64_t(decision.migrated));
    return decision;
}

void
HealthAwarePlacer::reset()
{
    lastAssignment_.clear();
    healthyStreak_.clear();
    trusted_.clear();
}

PlacementPlan
makeHealthAwarePlacementPlan(const HealthAwarePlacer::Decision &decision,
                             size_t coresPerSocket,
                             size_t poweredCoreBudget)
{
    const size_t sockets = decision.threadsPerSocket.size();
    fatalIf(sockets == 0 || coresPerSocket == 0,
            "placement plan needs a non-empty machine");
    size_t threads = 0;
    for (size_t count : decision.threadsPerSocket) {
        fatalIf(count > coresPerSocket,
                "decision assigns more threads than a socket has cores");
        threads += count;
    }
    fatalIf(poweredCoreBudget < threads,
            "powered-core budget smaller than the thread count");
    fatalIf(poweredCoreBudget > sockets * coresPerSocket,
            "powered-core budget exceeds the machine");

    PlacementPlan plan;
    std::vector<size_t> poweredOn = decision.threadsPerSocket;
    for (size_t s = 0; s < sockets; ++s) {
        for (size_t c = 0; c < decision.threadsPerSocket[s]; ++c)
            plan.threads.push_back(system::ThreadPlacement{s, c});
    }

    // Spread the idle reserve round-robin, trusted sockets first: the
    // instant-response cores should sit where waking them is cheap.
    size_t remaining = poweredCoreBudget - threads;
    for (int pass = 0; pass < 2 && remaining > 0; ++pass) {
        const bool wantTrusted = pass == 0;
        bool progress = true;
        while (remaining > 0 && progress) {
            progress = false;
            for (size_t s = 0; s < sockets && remaining > 0; ++s) {
                const bool trusted = s < decision.trusted.size() &&
                                     decision.trusted[s];
                if (trusted != wantTrusted ||
                    poweredOn[s] >= coresPerSocket)
                    continue;
                ++poweredOn[s];
                --remaining;
                progress = true;
            }
        }
    }

    for (size_t s = 0; s < sockets; ++s) {
        for (size_t c = 0; c < coresPerSocket; ++c) {
            if (c < decision.threadsPerSocket[s])
                continue; // runs a thread
            if (c < poweredOn[s])
                plan.idleCores.emplace_back(s, c);
            else
                plan.gatedCores.emplace_back(s, c);
        }
    }
    return plan;
}

} // namespace agsim::core
