#include "system/fleet_service.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "core/placement.h"
#include "obs/observability.h"

namespace agsim::system {

namespace {

/** Seed stride between servers (golden-ratio increment). */
constexpr uint64_t kSeedStride = 0x9E3779B97F4A7C15ull;

/** FNV-1a over one 64-bit word. */
uint64_t
fnvMix(uint64_t hash, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (word >> (8 * i)) & 0xFFu;
        hash *= 0x100000001B3ull;
    }
    return hash;
}

uint64_t
fnvMixDouble(uint64_t hash, double value)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    return fnvMix(hash, bits);
}

} // namespace

void
FleetServiceConfig::validate() const
{
    if (serverCount == 0)
        throw ConfigError("fleet service: serverCount must be positive");
    if (tickDt <= Seconds{0.0})
        throw ConfigError("fleet service: tickDt must be positive");
    if (ticksPerQuantum <= 0)
        throw ConfigError("fleet service: ticksPerQuantum must be "
                          "positive");
    if (settleDuration < Seconds{0.0})
        throw ConfigError("fleet service: settleDuration must be "
                          "non-negative");
    if (targetUtilization <= 0.0 || targetUtilization > 1.0)
        throw ConfigError("fleet service: targetUtilization out of "
                          "(0, 1]");
    if (rateShiftThreshold < 0.0)
        throw ConfigError("fleet service: rateShiftThreshold must be "
                          "non-negative");
    if (rateEwmaAlpha <= 0.0 || rateEwmaAlpha > 1.0)
        throw ConfigError("fleet service: rateEwmaAlpha out of (0, 1]");
    if (backlogDrainHorizon <= Seconds{0.0})
        throw ConfigError("fleet service: backlogDrainHorizon must be "
                          "positive");
    arrivals.validate();
    queue.validate();
    server.validate();
}

FleetService::FleetService(const FleetServiceConfig &config)
    : config_(config), stepper_(config_.stepper),
      arrivals_(config_.arrivals)
{
    config_.validate();
    manager_ = std::make_unique<recovery::RecoveryManager>(
        &stepper_, config_.recovery);

    servers_.reserve(config_.serverCount);
    for (size_t i = 0; i < config_.serverCount; ++i) {
        ServerConfig sc = config_.server;
        sc.chipTemplate.seed =
            config_.seed + kSeedStride * uint64_t(i + 1);
        servers_.push_back(std::make_unique<Server>(sc));
        queues_.emplace_back(config_.queue);
    }
    faultPlans_.resize(config_.serverCount);

    obs::MetricRegistry &reg = obs::registry();
    obsQuanta_ = &reg.counter("service.quanta_total");
    obsShed_ = &reg.counter("service.shed_total");
    obsCompleted_ = &reg.counter("service.completed_total");
    obsMigratedQueries_ = &reg.counter("service.migrated_queries_total");
}

void
FleetService::setTelemetry(obs::telemetry::TelemetryHub *hub)
{
    fatalIf(started_, "attach telemetry before the service starts");
    hub_ = hub;
    stepper_.setTelemetry(hub);
    manager_->setTelemetry(hub);
}

void
FleetService::setFaultPlan(size_t server, const fault::FaultPlan &plan)
{
    fatalIf(started_, "schedule fault plans before the service starts");
    fatalIf(server >= servers_.size(),
            "fault plan server index out of range");
    faultPlans_[server] = plan;
}

void
FleetService::installDefaultSlos(Seconds latencyCeiling)
{
    fatalIf(hub_ == nullptr,
            "installDefaultSlos needs a telemetry hub attached first");
    const Seconds q = quantum();

    obs::telemetry::SloRule latency;
    latency.name = "service.latency";
    latency.series = "service.latency_ms";
    latency.stat = obs::telemetry::BucketStat::Mean;
    latency.threshold = latencyCeiling.value() * 1e3;
    latency.violationIsAbove = true;
    latency.budget = 0.1;
    latency.shortWindow = q * 20.0;
    latency.longWindow = q * 100.0;
    latency.burnRate = 2.0;
    hub_->slo().addRule(latency);

    obs::telemetry::SloRule shed;
    shed.name = "service.shed";
    shed.series = "service.shed_rate";
    shed.stat = obs::telemetry::BucketStat::Max;
    shed.threshold = 0.0;
    shed.violationIsAbove = true;
    shed.budget = 0.1;
    shed.shortWindow = q * 20.0;
    shed.longWindow = q * 100.0;
    shed.burnRate = 2.0;
    hub_->slo().addRule(shed);
}

void
FleetService::start()
{
    if (started_)
        return;
    started_ = true;

    for (size_t i = 0; i < servers_.size(); ++i) {
        if (config_.settleDuration > Seconds{0.0})
            servers_[i]->settle(config_.settleDuration, config_.tickDt);
        const fault::FaultPlan *plan =
            faultPlans_[i].has_value() ? &*faultPlans_[i] : nullptr;
        manager_->addServer(*servers_[i], plan);
    }

    telemetryOn_ = hub_ != nullptr && hub_->enabled();
    if (telemetryOn_) {
        tsRate_ = hub_->declareSeries("service.offered_rate");
        tsDepth_ = hub_->declareSeries("service.queue_depth");
        tsLatency_ = hub_->declareSeries("service.latency_ms");
        tsShedRate_ = hub_->declareSeries("service.shed_rate");
        tsThroughput_ = hub_->declareSeries("service.throughput");
    }

    rateEwma_ = arrivals_.rate(Seconds{0.0});
    replace(demandEstimate());
}

double
FleetService::demandEstimate() const
{
    const double backlogRate =
        double(queueDepth()) / config_.backlogDrainHorizon.value();
    return std::max(0.0, rateEwma_) + backlogRate;
}

size_t
FleetService::placedOn(size_t index) const
{
    size_t placed = 0;
    for (size_t count : manager_->placedPerSocket(index))
        placed += count;
    return placed;
}

double
FleetService::capacityScale(size_t index) const
{
    double scale = 0.0;
    const std::vector<size_t> &placed = manager_->placedPerSocket(index);
    for (size_t s = 0; s < placed.size(); ++s) {
        const chip::Chip &c = servers_[index]->chip(s);
        for (size_t core = 0; core < placed[s]; ++core)
            scale += queues_[index].frequencyScale(c.coreFrequency(core));
    }
    return scale;
}

void
FleetService::replace(double demand)
{
    // Enough threads to serve the demand at the target utilization;
    // the manager sheds, clamps to servable cores, and places them.
    const size_t totalCores = servers_.size() *
                              config_.server.socketCount *
                              config_.server.chipTemplate.coreCount;
    const double perCore =
        config_.queue.serviceRatePerCore * config_.targetUtilization;
    const size_t threads =
        size_t(std::ceil(std::max(0.0, demand) / perCore));
    manager_->setWorkload(std::clamp<size_t>(threads, 1, totalCores),
                          config_.activeLoad);
    lastPlacedDemand_ = demand;
    ++stats_.placements;
}

void
FleetService::tick()
{
    fatalIf(!started_, "start() the fleet service before ticking it");
    const Seconds q = quantum();

    // 1. Advance the chips (work-stealing sweep when threads > 1).
    stepper_.run(config_.ticksPerQuantum, config_.tickDt);

    // 2. Open-loop traffic for this quantum (control thread only).
    const uint64_t freshArrivals = arrivals_.draw(now_, q);
    stats_.arrived += freshArrivals;
    uint64_t toRoute = freshArrivals;
    rateEwma_ = config_.rateEwmaAlpha * (double(freshArrivals) /
                                         q.value()) +
                (1.0 - config_.rateEwmaAlpha) * rateEwma_;

    // 3. Drain-and-migrate: a server that can no longer serve (failed,
    // frozen, or placed to zero) hands its backlog to the router.
    for (size_t i = 0; i < servers_.size(); ++i) {
        if ((!manager_->servable(i) || placedOn(i) == 0) &&
            queues_[i].depth() > 0) {
            const uint64_t moved = queues_[i].takeBacklog();
            toRoute += moved;
            stats_.migratedQueries += moved;
            obsMigratedQueries_->add(int64_t(moved));
        }
    }

    // 4. Resize the workload on a sustained demand shift (demand =
    // rate EWMA + backlog drain surplus). Capacity edges need nothing
    // here: the manager re-places on its own failure and recovery.
    const double demand = demandEstimate();
    const double reference = std::max(lastPlacedDemand_, 1.0);
    if (std::abs(demand - lastPlacedDemand_) / reference >
        config_.rateShiftThreshold) {
        replace(demand);
    }

    // 5. Route over placed capacity and step every queue.
    std::vector<double> weights(servers_.size(), 0.0);
    bool anyWeight = false;
    for (size_t i = 0; i < servers_.size(); ++i) {
        if (!manager_->servable(i))
            continue;
        const size_t placed = placedOn(i);
        weights[i] = double(placed);
        anyWeight = anyWeight || placed > 0;
    }
    if (!anyWeight) {
        // Total capacity loss: every query offered this quantum is
        // shed at the fleet door (counted, never silently dropped).
        stats_.shed += toRoute;
        obsShed_->add(int64_t(toRoute));
        toRoute = 0;
    }
    const std::vector<uint64_t> routed =
        core::splitByWeight(toRoute, weights);

    uint64_t admitted = 0;
    uint64_t shed = 0;
    uint64_t completed = 0;
    double latencyWeighted = 0.0;
    for (size_t i = 0; i < servers_.size(); ++i) {
        if (!manager_->servable(i))
            continue;
        const qos::QueueStepResult result =
            queues_[i].step(q, routed[i], capacityScale(i));
        admitted += result.admitted;
        shed += result.shed;
        completed += result.completed;
        if (result.completed > 0) {
            latency_.add(result.meanLatency.value(), result.completed);
            latencyWeighted +=
                result.meanLatency.value() * double(result.completed);
        }
    }
    stats_.admitted += admitted;
    stats_.shed += shed;
    stats_.completed += completed;
    obsShed_->add(int64_t(shed));
    obsCompleted_->add(int64_t(completed));

    // 6. Service telemetry, stamped on the post-quantum clock.
    now_ = now_ + q;
    ++stats_.quanta;
    obsQuanta_->add(1);
    const Seconds meanLatency =
        completed > 0 ? Seconds{latencyWeighted / double(completed)}
                      : Seconds{0.0};
    sampleTelemetry(freshArrivals, admitted, shed, completed,
                    meanLatency);

    // 7. Recovery pipeline last; it ends with the hub heartbeat (SLO
    // evaluation, stream lines, flight recorder) on the same clock.
    manager_->tick(q);
}

void
FleetService::sampleTelemetry(uint64_t arrived, uint64_t admitted,
                              uint64_t shed, uint64_t completed,
                              Seconds meanLatency)
{
    (void)admitted;
    if (!telemetryOn_)
        return;
    const double q = quantum().value();
    hub_->record(tsRate_, now_, double(arrived) / q);
    hub_->record(tsDepth_, now_, double(queueDepth()));
    if (completed > 0)
        hub_->record(tsLatency_, now_, meanLatency.value() * 1e3);
    hub_->record(tsShedRate_, now_, double(shed) / q);
    hub_->record(tsThroughput_, now_, double(completed) / q);
}

void
FleetService::runFor(Seconds duration)
{
    const Seconds q = quantum();
    const int64_t quanta =
        int64_t(std::ceil(duration.value() / q.value()));
    for (int64_t k = 0; k < quanta; ++k)
        tick();
}

uint64_t
FleetService::queueDepth() const
{
    uint64_t depth = 0;
    for (const qos::ServerQueueModel &queue : queues_)
        depth += queue.depth();
    return depth;
}

Seconds
FleetService::latencyQuantile(double q) const
{
    if (latency_.count() == 0)
        return Seconds{0.0};
    return Seconds{latency_.quantile(q)};
}

double
FleetService::sustainedFraction() const
{
    if (stats_.arrived == 0)
        return 1.0;
    return double(stats_.completed) / double(stats_.arrived);
}

uint64_t
FleetService::stateDigest() const
{
    uint64_t hash = 0xCBF29CE484222325ull;
    for (size_t i = 0; i < servers_.size(); ++i) {
        const Server &server = *servers_[i];
        for (size_t s = 0; s < server.socketCount(); ++s) {
            const chip::Chip &c = server.chip(s);
            hash = fnvMixDouble(hash, c.simTime().value());
            hash = fnvMixDouble(hash, c.setpoint().value());
            hash = fnvMixDouble(hash, c.power().value());
            for (size_t core = 0; core < c.coreCount(); ++core) {
                hash = fnvMixDouble(hash,
                                    c.coreFrequency(core).value());
            }
        }
        hash = fnvMix(hash, queues_[i].depth());
        hash = fnvMix(hash, queues_[i].totalAdmitted());
        hash = fnvMix(hash, queues_[i].totalShed());
        hash = fnvMix(hash, queues_[i].totalCompleted());
    }
    hash = fnvMix(hash, stats_.arrived);
    hash = fnvMix(hash, stats_.completed);
    hash = fnvMix(hash, stats_.shed);
    hash = fnvMix(hash, stats_.migratedQueries);
    hash = fnvMix(hash, uint64_t(manager_->placedThreads()));
    hash = fnvMixDouble(hash, rateEwma_);
    return hash;
}

} // namespace agsim::system
