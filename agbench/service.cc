/**
 * @file
 * The three fleet-service workloads. A round builds one FleetService,
 * starts it and ticks it through one complete traffic episode; each
 * tick() is one operation. The control thread calls tick() back to
 * back (closed loop on the host); traffic is open-loop in simulated
 * time, drawn by the service's ArrivalProcess from a seed derived from
 * --seed.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench_stats.h"
#include "host.h"
#include "obs/observability.h"
#include "obs/telemetry/telemetry_hub.h"
#include "system/fleet_service.h"
#include "workloads.h"

namespace agbench {

using namespace agsim;

namespace {

/** One service workload: its configuration and what it must show. */
struct ServiceSpec
{
    system::FleetServiceConfig config;
    /** Server-scope fault plan per server (empty = no faults). */
    std::vector<fault::FaultPlan> plans;
    size_t scheduledFaults = 0;
    /** Quanta in one traffic episode (one round). */
    int64_t quanta = 0;
    RateShape shape;
    /** Flash crowd: absorbs >= 90% and the latency SLO cycles. */
    bool flashChecks = false;
    /** Chaos: every fault detected, every server online at the end. */
    bool chaosChecks = false;
};

/** How one round deviates from the workload's own configuration. */
struct RoundMode
{
    bool hub = true;
    /** Replays: override the executor. */
    bool serial = false;
    bool exact = false;
    /** Time the chip step phases on a copy of the servers afterwards. */
    bool phaseTiming = false;
    /** Quanta to run instead of a whole episode (0 = whole). */
    int64_t quanta = 0;
};

struct RoundResult
{
    uint64_t digest = 0;
    system::FleetServiceStats stats;
    double p99LatencyS = 0.0;
    std::vector<double> opMs;
    double tickSeconds = 0.0;
    double cpuS = 0.0;
    double constructS = 0.0;
    double startS = 0.0;
    int64_t exactSteps = 0;
    int64_t ffTicks = 0;
    int64_t steals = 0;
    size_t workers = 0;
    double workerBusyS = 0.0;
    double sweepNs = 0.0;
    double solverNs = 0.0;
    double firmwareNs = 0.0;
    double telemetryNs = 0.0;
    double placementDecisions = 0.0;
    double placementMigrations = 0.0;
    double restores = 0.0;
    double recoveryMigrations = 0.0;
    int64_t failures = 0;
    int64_t checkpoints = 0;
    PhaseNs phases;
};

/** Set-ups timed on their own before the rounds of a run. */
constexpr int kSetupRepeats = 10;

obs::telemetry::TelemetryConfig
hubConfig(bool enabled)
{
    obs::telemetry::TelemetryConfig tc;
    tc.enabled = enabled;
    return tc;
}

double
counterValue(const char *name)
{
    return double(obs::registry().counter(name).value());
}

double
timerNs(const char *name)
{
    return double(obs::registry().timer(name).nanos->value());
}

/** Fleet capacity in queries/s at the nominal frequency. */
double
capacityPerSec(const system::FleetServiceConfig &c)
{
    return double(c.serverCount) * double(c.server.socketCount) *
           double(c.server.chipTemplate.coreCount) *
           c.queue.serviceRatePerCore;
}

system::FleetServiceConfig
baseConfig(size_t chips, uint64_t seed)
{
    system::FleetServiceConfig c;
    c.seed = deriveSeed(seed, 1);
    c.serverCount = chips / c.server.socketCount;
    c.settleDuration = Seconds{0.02};
    c.arrivals.seed = deriveSeed(seed, 2);
    c.arrivals.baseRatePerSec = 0.25 * capacityPerSec(c);
    return c;
}

ServiceSpec
flashSerial(uint64_t seed)
{
    ServiceSpec s;
    s.config = baseConfig(512, seed);
    workload::ArrivalConfig &a = s.config.arrivals;
    a.kind = workload::ArrivalKind::FlashCrowd;
    a.flashStart = Seconds{0.4};
    a.flashRise = Seconds{0.2};
    a.flashHold = Seconds{0.5};
    a.flashDecay = Seconds{0.2};
    // Peaks at 1.25x fleet capacity.
    a.flashMultiplier = 5.0;
    s.quanta = 250;
    s.shape.shape = Shape::Flash;
    s.shape.flashStart = 0.4;
    s.shape.flashRise = 0.2;
    s.shape.flashHold = 0.5;
    s.shape.flashDecay = 0.2;
    s.shape.flashPeak = 5.0;
    s.flashChecks = true;
    return s;
}

ServiceSpec
chaosT2(uint64_t seed)
{
    ServiceSpec s;
    s.config = baseConfig(512, seed);
    s.config.stepper.threads = 2;
    s.config.stepper.stealing = true;
    workload::ArrivalConfig &a = s.config.arrivals;
    a.kind = workload::ArrivalKind::Mmpp;
    a.burstMultiplier = 3.0;
    a.calmMeanDuration = Seconds{0.3};
    a.burstMeanDuration = Seconds{0.1};
    s.shape.shape = Shape::Mmpp;
    s.shape.burst = 3.0;
    s.quanta = 250;
    s.chaosChecks = true;

    // One server in eight gets one fault: crash, hang and VRM trip in
    // turn, starting in [0.2, 1.2) s and lasting [0.1, 0.25) s.
    s.plans.resize(s.config.serverCount);
    uint64_t draw = deriveSeed(seed, 3);
    auto uniform = [&draw](double lo, double hi) {
        draw = deriveSeed(draw, 0);
        return lo + (hi - lo) * double(draw >> 11) * 0x1.0p-53;
    };
    size_t kind = 0;
    for (size_t i = 3; i < s.config.serverCount; i += 8) {
        const Seconds start{uniform(0.2, 1.2)};
        const Seconds length{uniform(0.1, 0.25)};
        switch (kind++ % 3) {
        case 0:
            s.plans[i].serverCrash(start, length);
            break;
        case 1:
            s.plans[i].serverHang(start, length);
            break;
        default:
            s.plans[i].vrmShutdown(start, length);
            break;
        }
        ++s.scheduledFaults;
    }
    return s;
}

ServiceSpec
sampledDiurnal(uint64_t seed)
{
    ServiceSpec s;
    s.config = baseConfig(2048, seed);
    s.config.stepper.sampling = true;
    workload::ArrivalConfig &a = s.config.arrivals;
    a.kind = workload::ArrivalKind::Diurnal;
    a.diurnalPeriod = Seconds{2.0};
    a.diurnalAmplitude = 0.3;
    s.shape.shape = Shape::Diurnal;
    s.shape.period = 2.0;
    s.shape.amplitude = 0.3;
    s.quanta = 200;
    return s;
}

ServiceSpec
makeSpec(const std::string &name, uint64_t seed)
{
    ServiceSpec s = name == "svc_flash_serial" ? flashSerial(seed)
                    : name == "svc_chaos_t2"   ? chaosT2(seed)
                                               : sampledDiurnal(seed);
    s.shape.base = s.config.arrivals.baseRatePerSec;
    return s;
}

/** The per-server seed rule FleetService documents for its servers. */
uint64_t
serverSeed(const system::FleetServiceConfig &c, size_t i)
{
    return c.seed + 0x9E3779B97F4A7C15ull * uint64_t(i + 1);
}

/**
 * Time the public step phases on a copy of the first servers: same
 * configuration and seeds, with each chip's mode and core loads copied
 * from the live service.
 */
PhaseNs
timeCopy(system::FleetService &service, SpanRecorder &spans)
{
    ScopedSpan span(spans, "copy.servers");
    const system::FleetServiceConfig &c = service.config();
    std::vector<std::unique_ptr<system::Server>> copies;
    std::vector<chip::Chip *> chips;
    const size_t count = std::min<size_t>(16, service.serverCount());
    for (size_t i = 0; i < count; ++i) {
        system::ServerConfig sc = c.server;
        sc.chipTemplate.seed = serverSeed(c, i);
        copies.push_back(std::make_unique<system::Server>(sc));
        system::Server &live = service.server(i);
        for (size_t s = 0; s < live.socketCount(); ++s) {
            chip::Chip &chip = copies.back()->chip(s);
            chip.setMode(live.chip(s).mode());
            for (size_t core = 0; core < chip.coreCount(); ++core)
                chip.setLoad(core, live.chip(s).load(core));
            chips.push_back(&chip);
        }
        copies.back()->settle(c.settleDuration, c.tickDt);
    }
    return timeStepPhases(chips, 200, c.tickDt, spans);
}

/**
 * Construct and start a service (the set-up every round pays); the
 * hub must outlive the returned service.
 */
std::unique_ptr<system::FleetService>
setUp(const ServiceSpec &spec, const system::FleetServiceConfig &config,
      obs::telemetry::TelemetryHub &hub, SpanRecorder &spans,
      double &constructS, double &startS)
{
    const double t0 = wallNow();
    std::unique_ptr<system::FleetService> service;
    {
        ScopedSpan span(spans, "FleetService::FleetService");
        service = std::make_unique<system::FleetService>(config);
        service->setTelemetry(&hub);
        for (size_t i = 0; i < spec.plans.size(); ++i)
            service->setFaultPlan(i, spec.plans[i]);
        service->installDefaultSlos();
    }
    const double t1 = wallNow();
    {
        ScopedSpan span(spans, "FleetService::start");
        service->start();
    }
    constructS = t1 - t0;
    startS = wallNow() - t1;
    return service;
}

RoundResult
runRound(const ServiceSpec &spec, const RoundMode &mode,
         RunReport &report, SpanRecorder &spans)
{
    ScopedSpan roundSpan(spans, "round");
    system::FleetServiceConfig config = spec.config;
    if (mode.serial) {
        config.stepper.threads = 1;
        config.stepper.stealing = false;
    }
    if (mode.exact)
        config.stepper.sampling = false;

    const int64_t quanta = mode.quanta > 0 ? mode.quanta : spec.quanta;
    RoundResult r;
    const double placeDecisions0 =
        counterValue("placement.health.decisions");
    const double placeMigrations0 =
        counterValue("placement.health.migrations");
    const double restores0 = counterValue("recovery.restores_total");
    const double recMigrations0 = counterValue("recovery.migrations_total");

    obs::telemetry::TelemetryHub hub(hubConfig(mode.hub));

    std::unique_ptr<system::FleetService> service =
        setUp(spec, config, hub, spans, r.constructS, r.startS);

    system::FleetStepper &stepper = service->stepper();
    const int64_t ticksPerQuantum = config.ticksPerQuantum;
    int64_t expectedTicks = 0;
    const double sweep0 = timerNs("fleet.shard.sweep");
    const double solver0 = socketTimerNs("chip.step.solver");
    const double firmware0 = socketTimerNs("chip.step.firmware");
    const double telemetry0 = socketTimerNs("chip.step.telemetry");
    const double cpu0 = processCpuNow();
    bool broken = false;
    r.opMs.reserve(size_t(quanta));
    for (int64_t q = 0; q < quanta; ++q) {
        ++report.attempted;
        if (broken) {
            ++report.failed;
            continue;
        }
        int64_t active = 0;
        for (size_t i = 0; i < stepper.chipCount(); ++i)
            active += stepper.chipActive(i) ? 1 : 0;
        expectedTicks += active * ticksPerQuantum;
        try {
            const uint32_t span = spans.begin("FleetService::tick");
            const double a = wallNow();
            service->tick();
            const double b = wallNow();
            spans.end(span);
            r.opMs.push_back((b - a) * 1e3);
            r.tickSeconds += b - a;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "tick threw: %s\n", e.what());
            broken = true;
            ++report.failed;
            continue;
        }
        const system::FleetServiceStats &st = service->stats();
        if (!conserved({st.arrived, st.completed, st.shed,
                        service->queueDepth()})) {
            std::fprintf(stderr, "quantum %lld broke conservation\n",
                         (long long)q);
            ++report.failed;
        }
    }
    r.cpuS = processCpuNow() - cpu0;
    r.sweepNs = timerNs("fleet.shard.sweep") - sweep0;
    r.solverNs = socketTimerNs("chip.step.solver") - solver0;
    r.firmwareNs = socketTimerNs("chip.step.firmware") - firmware0;
    r.telemetryNs = socketTimerNs("chip.step.telemetry") - telemetry0;
    r.workerBusyS = otherThreadsCpu();
    r.workers = config.stepper.threads > 1 ? config.stepper.threads : 0;

    r.digest = service->stateDigest();
    r.stats = service->stats();
    r.p99LatencyS = service->latencyQuantile(0.99).value();
    r.exactSteps = stepper.exactSteps();
    r.ffTicks = stepper.fastForwardedTicks();
    r.steals = stepper.stealCount();
    r.failures = service->manager().failures();
    r.checkpoints = service->manager().checkpoints();
    r.placementDecisions =
        counterValue("placement.health.decisions") - placeDecisions0;
    r.placementMigrations =
        counterValue("placement.health.migrations") - placeMigrations0;
    r.restores = counterValue("recovery.restores_total") - restores0;
    r.recoveryMigrations =
        counterValue("recovery.migrations_total") - recMigrations0;

    // Round-level output checks.
    if (!broken) {
        const double simT = double(quanta) * service->quantum().value();
        report.check(withinPoisson(double(r.stats.arrived),
                                   expectedArrivals(spec.shape, simT), 4.0),
                     "arrivals within 4 sigma of the integrated rate");
        report.check(r.exactSteps + r.ffTicks == expectedTicks,
                     "exact + fast-forwarded ticks == active chips x "
                     "ticks");
        if (spec.flashChecks && quanta == spec.quanta) {
            report.check(service->sustainedFraction() >= 0.9,
                         "flash crowd: >= 90% of the load absorbed");
            if (mode.hub) {
                bool cycled = false;
                for (const auto &alert : hub.slo().alerts()) {
                    if (alert.rule.name == "service.latency")
                        cycled = alert.fireCount >= 1 && !alert.active &&
                                 alert.resolvedAt > alert.firedAt;
                }
                report.check(cycled,
                             "flash crowd: latency SLO fires and "
                             "resolves");
            }
        }
        if (spec.chaosChecks && quanta == spec.quanta) {
            report.check(r.failures == int64_t(spec.scheduledFaults),
                         "chaos: every scheduled server fault detected");
            bool allOnline =
                service->manager().onlineCount() == service->serverCount();
            for (size_t i = 0; i < service->serverCount(); ++i)
                allOnline = allOnline &&
                            service->manager().state(i) ==
                                recovery::ServerRecoveryState::Online;
            report.check(allOnline, "chaos: every server online at the "
                                    "end");
        }
    }
    if (mode.phaseTiming)
        r.phases = timeCopy(*service, spans);
    return r;
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

/** Rounds until `budget` host seconds pass and `minOps` ops are seen. */
template <typename Fn>
void
roundsFor(double budget, size_t minOps, size_t opsPerRound, Fn &&round)
{
    const double start = wallNow();
    size_t ops = 0;
    do {
        round();
        ops += opsPerRound;
    } while (wallNow() - start < budget || ops < minOps);
}

} // namespace

bool
isServiceWorkload(const std::string &name)
{
    return name == "svc_flash_serial" || name == "svc_chaos_t2" ||
           name == "svc_sampled_diurnal";
}

void
runService(const RunOptions &options, RunReport &report,
           SpanRecorder &spans)
{
    const ServiceSpec spec = makeSpec(options.workload, options.seed);
    const size_t minOps = minSamplesForTail(0.95, 10);
    uint64_t reference = 0;
    bool haveReference = false;
    auto sameDigest = [&](const RoundResult &r, const char *what) {
        if (!haveReference) {
            reference = r.digest;
            haveReference = true;
            return;
        }
        report.check(r.digest == reference, what);
    };

    // Dedicated set-ups: one per round gives too few samples for a
    // steady median of a step this short.
    std::vector<double> construct, start;
    for (int k = 0; k < kSetupRepeats; ++k) {
        obs::telemetry::TelemetryHub hub(hubConfig(true));
        double c = 0.0, s = 0.0;
        setUp(spec, spec.config, hub, spans, c, s);
        construct.push_back(c);
        start.push_back(s);
        report.setupS.push_back(c + s);
    }

    // Untraced rounds: the end-to-end samples.
    const double plainBudget =
        options.traced ? options.seconds / 4.0 : options.seconds;
    roundsFor(plainBudget, minOps, size_t(spec.quanta), [&] {
        const RoundResult r = runRound(spec, RoundMode{}, report, spans);
        sameDigest(r, "every round reproduces the first round's state");
        report.opMs.insert(report.opMs.end(), r.opMs.begin(),
                           r.opMs.end());
        report.roundChipStepsPerS.push_back(
            double(r.exactSteps + r.ffTicks) / r.tickSeconds);
        report.roundCpuS.push_back(r.cpuS);
        report.setupS.push_back(r.constructS + r.startS);
        construct.push_back(r.constructS);
        start.push_back(r.startS);
    });
    if (!options.traced)
        return;

    // Traced rounds: profiling timers and spans on.
    std::vector<RoundResult> traced;
    obs::setProfilingEnabled(true);
    spans.setEnabled(true);
    roundsFor(options.seconds / 4.0, 0, size_t(spec.quanta), [&] {
        RoundMode mode;
        mode.phaseTiming = traced.empty();
        RoundResult r = runRound(spec, mode, report, spans);
        sameDigest(r, "profiling leaves the service state unchanged");
        traced.push_back(std::move(r));
    });
    spans.setEnabled(false);
    obs::setProfilingEnabled(false);

    // Paired rounds over the first half-episode, alternating hub off
    // and hub on: host speed drifts over a run, so the overheads
    // compare neighbouring rounds. Every half-episode replay must end
    // in the same state as the hub-on one.
    RoundMode on;
    on.quanta = spec.quanta / 2;
    RoundMode off = on;
    off.hub = false;
    std::vector<double> onOps, offOps;
    uint64_t halfDigest = 0;
    RoundResult sampledHalf;
    for (int pair = 0; pair < 2; ++pair) {
        const RoundResult o = runRound(spec, off, report, spans);
        offOps.insert(offOps.end(), o.opMs.begin(), o.opMs.end());
        RoundResult h = runRound(spec, on, report, spans);
        onOps.insert(onOps.end(), h.opMs.begin(), h.opMs.end());
        if (pair == 0)
            halfDigest = h.digest;
        report.check(o.digest == halfDigest && h.digest == halfDigest,
                     "telemetry on and off leave identical state");
        sampledHalf = std::move(h);
    }

    std::map<std::string, double> &L = report.layer;
    const double onMedian = median(onOps);
    L["telemetry.overhead_pct"] = 100.0 * (onMedian / median(offOps) - 1.0);
    // The traced rounds' first halves run the same quanta.
    std::vector<double> tracedHalfOps;
    for (const RoundResult &r : traced)
        tracedHalfOps.insert(
            tracedHalfOps.end(), r.opMs.begin(),
            r.opMs.begin() + std::min<ptrdiff_t>(on.quanta,
                                                 ptrdiff_t(r.opMs.size())));
    L["trace.overhead_pct"] =
        100.0 * (median(tracedHalfOps) / onMedian - 1.0);

    // Replays of the same half-episode.
    if (spec.config.stepper.threads > 1) {
        RoundMode serial = on;
        serial.serial = true;
        const RoundResult r = runRound(spec, serial, report, spans);
        report.check(r.digest == halfDigest,
                     "thread-count invariance: state digest equals "
                     "the serial replay");
        L["pool.speedup_vs_serial"] = median(r.opMs) / onMedian;
    }
    if (spec.config.stepper.sampling) {
        // An exact replay of a whole episode would outlast the run.
        RoundMode exactMode = on;
        exactMode.exact = true;
        const RoundResult e = runRound(spec, exactMode, report, spans);
        const RoundResult &p = sampledHalf;
        // Tolerances of the sampled service against its exact replay.
        report.check(relativeDiff(double(p.stats.completed),
                                  double(e.stats.completed)) <= 0.01,
                     "sampled vs exact: completed within 1%");
        report.check(std::abs(double(p.stats.shed) -
                              double(e.stats.shed)) <=
                         0.01 * double(e.stats.arrived),
                     "sampled vs exact: shed within 1% of arrivals");
        report.check(relativeDiff(p.p99LatencyS, e.p99LatencyS) <= 0.10,
                     "sampled vs exact: p99 latency within 10%");
        report.check(std::abs(double(p.stats.placements) -
                              double(e.stats.placements)) <=
                         std::max(2.0, 0.2 * double(e.stats.placements)),
                     "sampled vs exact: placements within 20%");
    }

    // Per-layer metrics from the traced rounds.
    double ticks = 0.0, sweep = 0.0, quanta = 0.0, busy = 0.0;
    double solver = 0.0, firmware = 0.0, telemetry = 0.0, exact = 0.0;
    for (const RoundResult &r : traced) {
        ticks += r.tickSeconds;
        sweep += r.sweepNs * 1e-9;
        quanta += double(r.opMs.size());
        busy += r.workerBusyS;
        solver += r.solverNs;
        firmware += r.firmwareNs;
        telemetry += r.telemetryNs;
        exact += double(r.exactSteps);
    }
    const RoundResult &t = traced.front();
    L["service.control_ms_per_quantum"] = (ticks - sweep) / quanta * 1e3;
    L["stepper.sweep_ms_per_quantum"] = sweep / quanta * 1e3;
    L["stepper.exact_steps"] = double(t.exactSteps);
    L["stepper.ff_ticks"] = double(t.ffTicks);
    L["stepper.ff_fraction"] =
        double(t.ffTicks) / double(t.exactSteps + t.ffTicks);
    L["pool.steals"] = double(t.steals);
    L["pool.worker_busy_s"] = busy / double(traced.size());
    L["pool.barrier_idle_share"] =
        t.workers > 0 ? 1.0 - busy / (double(t.workers) * sweep) : 0.0;
    L["chip.solver_ns"] = solver / exact;
    L["chip.firmware_ns"] = firmware / exact;
    L["chip.telemetry_ns"] = telemetry / exact;
    L["chip.sense_ns"] = t.phases.sense;
    L["chip.control_ns"] = t.phases.control;
    L["chip.commit_ns"] = t.phases.commit;
    L["placement.decisions"] = t.placementDecisions;
    L["placement.migrations"] = t.placementMigrations;
    L["service.placements"] = double(t.stats.placements);
    L["queue.arrived"] = double(t.stats.arrived);
    L["queue.completed"] = double(t.stats.completed);
    L["queue.shed"] = double(t.stats.shed);
    L["queue.migrated"] = double(t.stats.migratedQueries);
    L["recovery.failures"] = double(t.failures);
    L["recovery.checkpoints"] = double(t.checkpoints);
    L["recovery.restores"] = t.restores;
    L["recovery.migrations"] = t.recoveryMigrations;
    L["setup.construct_s"] = median(construct);
    L["setup.start_s"] = median(start);
}

} // namespace agbench
