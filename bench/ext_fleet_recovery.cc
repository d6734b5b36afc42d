/**
 * @file
 * Extension bench: fleet throughput under a server failure storm.
 *
 * A six-server fleet (two sockets each, AdaptiveUndervolt) carries a
 * fixed pool of worker threads while a scripted chaos schedule knocks
 * servers out: two independent crashes (one through a SlowRestart
 * window), a hang, a correlated three-server burst, and a VRM
 * overcurrent trip. Three arms run the identical schedule:
 *
 *  - ideal:    no faults. The fleet-throughput ceiling.
 *  - blind:    faults strike but nothing detects or repairs them;
 *              crashed servers stay down and hung servers only return
 *              when their fault window expires. Work pinned to dead
 *              capacity is simply lost.
 *  - recovery: a RecoveryManager watches heartbeats, probes and
 *              restarts failed servers, restores their chips from
 *              periodic in-memory checkpoints, drains threads onto the
 *              survivors during each outage, and walks the degradation
 *              ladder through the correlated burst.
 *
 * Throughput is core-seconds weighted by frequency: each tick, every
 * *actually stepping* server contributes sum(active core frequency) *
 * dt. The acceptance criterion (ISSUE): the recovery arm must retain
 * at least 70% of the ideal arm's throughput; the blind arm shows what
 * is lost without it.
 *
 * Output is one single-line JSON record (scripts/CI) plus a table when
 * chart=1.
 *
 * Usage: ext_fleet_recovery [servers=6] [threads=32] [duration=2.0]
 *        [gate=0.7] [seed=...] [chart=0|1]
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fault/fault_plan.h"
#include "recovery/recovery_manager.h"
#include "system/fleet_stepper.h"
#include "system/server.h"

using namespace agsim;
using namespace agsim::units;

namespace {

constexpr Seconds kDt = Seconds{1e-3};

struct ArmSpec
{
    std::string name;
    bool faulted = false;
    bool managed = false;
};

struct ArmResult
{
    std::string name;
    double throughput = 0.0; // core-GHz-seconds, fleet total
    int64_t failures = 0;
    int64_t recoveries = 0;
    int64_t selfRecoveries = 0;
    int64_t checkpoints = 0;
    int maxRung = 0;
    double mttr = 0.0;
    size_t finalOnline = 0;
    int64_t sloAlerts = 0;
    int64_t flightDumps = 0;
    int64_t streamLines = 0;
};

struct StudyConfig
{
    size_t servers = 6;
    size_t threads = 32;
    Seconds duration = Seconds{2.0};
    double gate = 0.7;
};

/**
 * The bench's declarative SLOs (telemetry=1): availability (any server
 * down burns budget), margin floor, and recovery MTTR. The scripted
 * storm is engineered to burn the availability budget at every outage,
 * so the alert stream lines up with the chaos schedule.
 */
void
addSloRules(obs::telemetry::TelemetryHub &hub, size_t servers)
{
    obs::telemetry::SloRule online;
    online.name = "fleet.availability";
    online.series = "recovery.online";
    online.stat = obs::telemetry::BucketStat::Min;
    online.threshold = double(servers) - 0.5;
    online.violationIsAbove = false; // bad when any server is down
    online.budget = 0.05;
    online.shortWindow = Seconds{0.05};
    online.longWindow = Seconds{0.25};
    online.burnRate = 2.0;
    hub.slo().addRule(online);

    obs::telemetry::SloRule margin;
    margin.name = "fleet.margin_floor";
    margin.series = "fleet.margin";
    margin.stat = obs::telemetry::BucketStat::Min;
    margin.threshold = 0.0; // a negative-margin bucket is an emergency
    margin.violationIsAbove = false;
    margin.budget = 0.01;
    margin.shortWindow = Seconds{0.05};
    margin.longWindow = Seconds{0.25};
    margin.burnRate = 2.0;
    hub.slo().addRule(margin);

    obs::telemetry::SloRule mttr;
    mttr.name = "recovery.mttr";
    mttr.series = "recovery.mttr_s";
    mttr.stat = obs::telemetry::BucketStat::Last;
    mttr.threshold = 0.25;
    mttr.violationIsAbove = true;
    mttr.budget = 0.1;
    mttr.shortWindow = Seconds{0.1};
    mttr.longWindow = Seconds{0.5};
    mttr.burnRate = 1.5;
    hub.slo().addRule(mttr);
}

system::ServerConfig
serverConfig(size_t index, uint64_t seed)
{
    system::ServerConfig config;
    config.socketCount = 2;
    config.chipTemplate.mode = chip::GuardbandMode::AdaptiveUndervolt;
    config.chipTemplate.seed =
        seed + 0x9E3779B97F4A7C15ull * (index + 1);
    return config;
}

/**
 * The default chaos schedule, scaled to `servers` (extra servers past
 * the scripted six just run clean).
 */
std::vector<fault::FaultPlan>
chaosSchedule(size_t servers)
{
    std::vector<fault::FaultPlan> plans(servers);
    auto at = [&](size_t i) -> fault::FaultPlan & {
        return plans[i % servers];
    };
    // Two independent crashes; the second reboots through a cold-VRM
    // SlowRestart window.
    at(1).serverCrash(Seconds{0.3}, Seconds{0.15});
    at(2).serverCrash(Seconds{0.5}, Seconds{0.2})
        .slowRestart(Seconds{0.5}, Seconds{0.4}, 2.0);
    // A hang: wedged but powered, state retained.
    at(3).serverHang(Seconds{0.8}, Seconds{0.25});
    // Correlated burst: three servers lost inside one storm window.
    at(1).serverCrash(Seconds{1.2}, Seconds{0.15});
    at(2).serverCrash(Seconds{1.2}, Seconds{0.15});
    at(4).serverCrash(Seconds{1.2}, Seconds{0.15});
    // A bulk-converter overcurrent trip, crash-equivalent.
    at(5).vrmShutdown(Seconds{1.5}, Seconds{0.2});
    return plans;
}

ArmResult
runArm(const ArmSpec &arm, const StudyConfig &study,
       const bench::BenchOptions &options)
{
    ArmResult result;
    result.name = arm.name;

    std::vector<std::unique_ptr<system::Server>> servers;
    for (size_t i = 0; i < study.servers; ++i)
        servers.push_back(std::make_unique<system::Server>(
            serverConfig(i, options.seed)));

    system::FleetStepper stepper{system::FleetStepperConfig{}};
    recovery::RecoveryPolicy policy;
    policy.enabled = arm.managed;
    recovery::RecoveryManager manager(&stepper, policy);

    // The live telemetry plane rides the managed arm only: one stream
    // file and one dump directory per run, tied to the arm whose
    // alerts the acceptance test checks against the chaos schedule.
    std::unique_ptr<obs::telemetry::TelemetryHub> hub;
    if (options.telemetry && arm.managed) {
        hub = std::make_unique<obs::telemetry::TelemetryHub>(
            bench::telemetryConfig(options));
        addSloRules(*hub, study.servers);
        stepper.setTelemetry(hub.get());
        manager.setTelemetry(hub.get());
    }

    const std::vector<fault::FaultPlan> plans =
        arm.faulted ? chaosSchedule(study.servers)
                    : std::vector<fault::FaultPlan>(study.servers);
    for (size_t i = 0; i < study.servers; ++i) {
        manager.addServer(*servers[i],
                          plans[i].empty() ? nullptr : &plans[i]);
    }
    manager.setWorkload(study.threads,
                        chip::CoreLoad::running(0.9, 13.0_mV, 24.0_mV));

    // Frozen servers stop stepping, so "did the sim clock advance this
    // tick" is the honest black-box test for whether a server's cores
    // delivered any work.
    std::vector<double> lastSimTime(study.servers, 0.0);
    for (size_t i = 0; i < study.servers; ++i)
        lastSimTime[i] = servers[i]->chip(0).simTime().value();

    const int64_t ticks =
        int64_t(study.duration.value() / kDt.value() + 0.5);
    for (int64_t t = 0; t < ticks; ++t) {
        stepper.run(1, kDt);
        for (size_t i = 0; i < study.servers; ++i) {
            const system::Server &server = *servers[i];
            const double simTime = server.chip(0).simTime().value();
            if (simTime == lastSimTime[i])
                continue; // frozen: no work delivered this tick
            lastSimTime[i] = simTime;
            double hertz = 0.0;
            for (size_t s = 0; s < server.socketCount(); ++s) {
                const chip::Chip &chip = server.chip(s);
                for (size_t c = 0; c < chip.coreCount(); ++c) {
                    const chip::CoreLoad &load = chip.load(c);
                    if (load.active && !load.gated)
                        hertz += chip.coreFrequency(c).value();
                }
            }
            result.throughput += hertz * 1e-9 * kDt.value();
        }
        manager.tick(kDt);
        result.maxRung = std::max(result.maxRung,
                                  manager.degradationRung());
    }

    result.failures = manager.failures();
    result.recoveries = manager.recoveries();
    result.selfRecoveries = manager.selfRecoveries();
    result.checkpoints = manager.checkpoints();
    result.mttr = manager.meanTimeToRecover().value();
    result.finalOnline = manager.onlineCount();
    if (hub) {
        result.sloAlerts = int64_t(hub->slo().totalFires());
        if (hub->recorder() != nullptr)
            result.flightDumps = int64_t(hub->recorder()->dumps().size());
        result.streamLines = int64_t(hub->streamLines());
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseOptions(argc, argv);

    StudyConfig study;
    study.servers = size_t(options.params.getInt("servers", 6));
    study.threads = size_t(options.params.getInt("threads", 32));
    study.duration = Seconds{options.params.getDouble("duration", 2.0)};
    study.gate = options.params.getDouble("gate", 0.7);

    const std::vector<ArmSpec> arms = {
        {"ideal", false, false},
        {"blind", true, false},
        {"recovery", true, true},
    };
    std::vector<ArmResult> results;
    results.reserve(arms.size());
    for (const auto &arm : arms)
        results.push_back(runArm(arm, study, options));

    const ArmResult &ideal = results[0];
    const ArmResult &blind = results[1];
    const ArmResult &recovery = results[2];
    const double retainedBlind =
        ideal.throughput > 0.0 ? blind.throughput / ideal.throughput : 0.0;
    const double retainedRecovery =
        ideal.throughput > 0.0 ? recovery.throughput / ideal.throughput
                               : 0.0;
    const bool pass = retainedRecovery >= study.gate &&
                      recovery.throughput >= blind.throughput;

    if (options.chart) {
        bench::banner(
            "ext_fleet_recovery: fleet throughput under a server "
            "failure storm",
            "checkpointed restart + drain-and-migrate retains most of "
            "the fault-free throughput; a blind fleet forfeits every "
            "core-second on dead servers");
        std::printf("%10s %16s %10s %6s %6s %6s %6s %8s\n", "arm",
                    "core-GHz-sec", "retained", "fail", "recov", "ckpt",
                    "rung", "mttr_s");
        for (const auto &r : results) {
            const double retained = ideal.throughput > 0.0
                                        ? r.throughput / ideal.throughput
                                        : 0.0;
            std::printf("%10s %16.3f %9.1f%% %6lld %6lld %6lld %6d "
                        "%8.3f\n",
                        r.name.c_str(), r.throughput, 100.0 * retained,
                        (long long)r.failures, (long long)r.recoveries,
                        (long long)r.checkpoints, r.maxRung, r.mttr);
        }
        std::printf("\nrecovery retained %.1f%% (gate %.0f%%), blind "
                    "retained %.1f%% -> %s\n",
                    100.0 * retainedRecovery, 100.0 * study.gate,
                    100.0 * retainedBlind, pass ? "PASS" : "FAIL");
    }

    auto summary = bench::benchSummary("ext_fleet_recovery", options);
    summary.set("servers", int64_t(study.servers));
    summary.set("threads", int64_t(study.threads));
    summary.set("duration_s", study.duration.value());
    std::string armsJson = "[";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        obs::JsonLineWriter record;
        record.set("arm", r.name);
        record.set("throughput", r.throughput);
        record.set("failures", r.failures);
        record.set("recoveries", r.recoveries);
        record.set("self_recoveries", r.selfRecoveries);
        record.set("checkpoints", r.checkpoints);
        record.set("max_rung", int64_t(r.maxRung));
        record.set("final_online", int64_t(r.finalOnline));
        armsJson += (i == 0 ? "" : ", ") + record.str();
    }
    armsJson += "]";
    summary.setRaw("arms", armsJson);
    summary.set("throughput_retained_blind", retainedBlind);
    summary.set("throughput_retained_recovery", retainedRecovery);
    summary.set("mttr_s", recovery.mttr);
    if (options.telemetry) {
        summary.set("slo_alerts", recovery.sloAlerts);
        summary.set("flight_dumps", recovery.flightDumps);
        summary.set("stream_lines", recovery.streamLines);
    }
    summary.set("gate", study.gate);
    summary.set("pass", pass);
    bench::finishBench(options, summary);
    return pass ? 0 : 1;
}
