/**
 * @file
 * Continuous-service soak bench: runs a FleetService (open-loop
 * traffic, work-stealing execution, online placement/admission/
 * migration, recovery plane, telemetry) for a fixed span of sim time
 * and reports service-level throughput and latency in one JSON line:
 *
 *   {"fleet_service_chip_steps_per_sec": ..., "quanta_per_sec": ...,
 *    "fleet_service_p99_latency_ms": ..., "sustained_fraction": ...,
 *    "slo_fires": ..., "slo_resolves": ..., "stream_lines": ...,
 *    "bit_identical": ..., ...}
 *
 * Scenarios (scenario=):
 *   steady  - constant offered rate at ~25% of fleet capacity;
 *   diurnal - raised-cosine day/night sweep around that base;
 *   mmpp    - two-state Markov-modulated bursts (4x calm rate);
 *   flash   - scripted flash crowd peaking above fleet capacity (the
 *             CI soak scenario: an SLO alert must fire AND resolve).
 *
 * verify=1 additionally replays the identical scenario serially
 * (threads=1, inline) and compares state digests: any mismatch
 * is a determinism bug and the bench exits nonzero. The CI smoke job
 * runs `scenario=flash chips=512 verify=1`.
 *
 * stream=<path> attaches a telemetry hub with JSONL streaming so CI
 * can validate and archive the live stream (tools/fleetdash.py reads
 * the same file).
 *
 * Usage: svc_fleet_service [scenario=flash] [chips=512]
 *                          [duration=2.0] [threads=0] [verify=0]
 *                          [stream=] [seed=...]
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "common/config.h"
#include "obs/json_writer.h"
#include "obs/observability.h"
#include "obs/telemetry/telemetry_hub.h"
#include "system/fleet_service.h"

using namespace agsim;

namespace {

/** Scenario knobs on top of the shared service template. */
void
applyScenario(system::FleetServiceConfig &config,
              const std::string &scenario, double capacityPerSec)
{
    workload::ArrivalConfig &a = config.arrivals;
    a.baseRatePerSec = 0.25 * capacityPerSec;
    if (scenario == "steady") {
        a.kind = workload::ArrivalKind::Steady;
    } else if (scenario == "diurnal") {
        a.kind = workload::ArrivalKind::Diurnal;
        a.diurnalPeriod = Seconds{1.0};
        a.diurnalAmplitude = 0.6;
    } else if (scenario == "mmpp") {
        a.kind = workload::ArrivalKind::Mmpp;
        a.burstMultiplier = 4.0;
        a.calmMeanDuration = Seconds{0.3};
        a.burstMeanDuration = Seconds{0.1};
    } else if (scenario == "flash") {
        a.kind = workload::ArrivalKind::FlashCrowd;
        a.flashStart = Seconds{0.4};
        a.flashRise = Seconds{0.2};
        a.flashHold = Seconds{0.5};
        a.flashDecay = Seconds{0.2};
        // Peaks at 1.25x fleet capacity: forces queueing, an SLO
        // fire, and a drain-driven resolve after the decay.
        a.flashMultiplier = 5.0;
    } else {
        std::fprintf(stderr,
                     "unknown scenario '%s' (steady|diurnal|mmpp|"
                     "flash)\n",
                     scenario.c_str());
        std::exit(2);
    }
}

struct SoakResult
{
    uint64_t digest = 0;
    double wallSeconds = 0.0;
    double sustained = 0.0;
    Seconds p99{0.0};
    system::FleetServiceStats stats;
    int64_t chipTicks = 0;
    /** Threads the manager's placers moved between sockets. */
    int64_t threadMigrations = 0;
    uint64_t sloFires = 0;
    uint64_t sloResolves = 0;
    uint64_t streamLines = 0;
};

SoakResult
runSoak(const system::FleetServiceConfig &config, Seconds duration,
        const std::string &streamPath)
{
    obs::telemetry::TelemetryConfig tc;
    tc.enabled = true;
    tc.sampleInterval = Seconds{0.01};
    tc.streamPath = streamPath;
    obs::telemetry::TelemetryHub hub(tc);

    obs::Counter &migrations =
        obs::registry().counter("placement.health.migrations");
    const int64_t migrations0 = migrations.value();

    system::FleetService service(config);
    service.setTelemetry(&hub);
    service.installDefaultSlos();
    service.start();

    const auto start = std::chrono::steady_clock::now();
    service.runFor(duration);
    const auto stop = std::chrono::steady_clock::now();

    SoakResult result;
    result.digest = service.stateDigest();
    result.wallSeconds =
        std::chrono::duration<double>(stop - start).count();
    result.sustained = service.sustainedFraction();
    result.p99 = service.latencyQuantile(0.99);
    result.stats = service.stats();
    result.chipTicks =
        service.stats().quanta * config.ticksPerQuantum;
    result.threadMigrations = migrations.value() - migrations0;
    result.sloFires = hub.slo().totalFires();
    result.sloResolves = hub.slo().totalFires() -
                         uint64_t(hub.slo().activeCount());
    result.streamLines = hub.streamLines();
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    ParamSet params;
    params.parseArgs(argc, argv);
    const std::string scenario = params.getString("scenario", "flash");
    const size_t chips = size_t(params.getInt("chips", 512));
    const Seconds duration{params.getDouble("duration", 2.0)};
    const int threads = params.getInt("threads", 0);
    const bool verify = params.getInt("verify", 0) != 0;
    const std::string streamPath = params.getString("stream", "");
    const uint64_t seed =
        uint64_t(params.getInt("seed", 0x5EEDFEED));

    system::FleetServiceConfig config;
    config.seed = seed;
    config.serverCount =
        std::max<size_t>(1, chips / config.server.socketCount);
    config.settleDuration = Seconds{0.02};
    config.stepper.threads = threads;
    const double capacity =
        double(config.serverCount) *
        double(config.server.socketCount) *
        double(config.server.chipTemplate.coreCount) *
        config.queue.serviceRatePerCore;
    applyScenario(config, scenario, capacity);

    const SoakResult soak = runSoak(config, duration, streamPath);

    bool bitIdentical = true;
    if (verify) {
        // Replay the same scenario serially (inline, no pool):
        // exact mode must be a pure function of (config, seeds).
        system::FleetServiceConfig serial = config;
        serial.stepper.threads = 1;
        const SoakResult ref = runSoak(serial, duration, "");
        bitIdentical = ref.digest == soak.digest;
        if (!bitIdentical)
            std::fprintf(stderr,
                         "DIGEST MISMATCH: threaded=%016llx "
                         "serial=%016llx\n",
                         (unsigned long long)soak.digest,
                         (unsigned long long)ref.digest);
    }

    obs::JsonLineWriter record;
    record.set("scenario", scenario);
    record.set("chips", uint64_t(chips));
    record.set("servers", uint64_t(config.serverCount));
    record.set("sim_seconds", duration.value());
    record.set("wall_seconds", soak.wallSeconds);
    record.set("fleet_service_chip_steps_per_sec",
               double(soak.chipTicks) * double(chips) /
                   soak.wallSeconds);
    record.set("quanta_per_sec",
               double(soak.stats.quanta) / soak.wallSeconds);
    record.set("fleet_service_p99_latency_ms",
               soak.p99.value() * 1e3);
    record.set("sustained_fraction", soak.sustained);
    record.set("arrived", soak.stats.arrived);
    record.set("completed", soak.stats.completed);
    record.set("shed", soak.stats.shed);
    record.set("migrated_queries", soak.stats.migratedQueries);
    record.set("placements", uint64_t(soak.stats.placements));
    record.set("thread_migrations",
               uint64_t(soak.threadMigrations));
    record.set("slo_fires", soak.sloFires);
    record.set("slo_resolves", soak.sloResolves);
    record.set("stream_lines", soak.streamLines);
    record.set("state_digest", soak.digest);
    record.set("verified", verify);
    record.set("bit_identical", bitIdentical);
    // The CI smoke gate greps this verdict: the flash scenario must
    // absorb >= 90% of the offered load.
    record.set("pass", bitIdentical && soak.sustained >= 0.9);
    obs::writeJsonLine(record);
    return bitIdentical ? 0 : 1;
}
