/**
 * @file
 * Extension bench: guardband resilience under CPM sensor faults.
 *
 * Sweeps an optimistic CPM bias (the dangerous fault direction: the
 * sensors report more margin than exists, so the undervolting firmware
 * walks the rail below the true vmin) against a chip running in
 * AdaptiveUndervolt with the SafetyMonitor armed, and reports, per bias
 * magnitude:
 *
 *  - emergencies:   timing emergencies counted before demotion
 *  - t_demote_ms:   time from fault onset to the safety demotion
 *  - post_emerg:    emergencies in the post-demotion observation window
 *                   (the acceptance criterion: must be 0)
 *  - eff_delta_pct: chip-power cost of the demotion — static(-guardband)
 *                   power vs the healthy adaptive baseline
 *
 * Output is one single-line JSON record (scripts/CI), plus a table when
 * chart=1. The undervolt ceiling is raised (maxUndervolt=120 mV) so the
 * injected lie expresses fully instead of being clipped at the default
 * 80 mV walk limit.
 *
 * Usage: ext_fault_resilience [biases_mv=10,20,40] [measure=1.0]
 *        [seed=...] [chart=0|1]
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "chip/chip.h"
#include "common/units.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "pdn/vrm.h"

using namespace agsim;
using namespace agsim::units;

namespace {

constexpr Seconds kDt = Seconds{1e-3};
constexpr Seconds kFaultStart = Seconds{0.1};

struct ResiliencePoint
{
    double biasMv = 0.0;
    int64_t emergencies = 0;     // counted up to the demotion
    Seconds timeToDemotion = Seconds{-1.0}; // from onset; <0 = never
    int64_t postEmergencies = 0; // after demotion + recovery
    double efficiencyDeltaPct = 0.0;
};

chip::ChipConfig
benchConfig(uint64_t seed)
{
    chip::ChipConfig config;
    config.seed = seed;
    config.undervolt.maxUndervolt = Volts{0.120};
    // Latch on the first demotion. The injected lie is permanent, and
    // the bench measures detection latency and the post-demotion
    // regime; with the default re-arm hysteresis the monitor would
    // re-try the adaptive mode mid-measurement and re-demote (that
    // cycle is covered by tests/test_safety_monitor.cc).
    config.safety.maxRearms = 0;
    return config;
}

/** Settled mean chip power over `duration` in the chip's current state. */
Watts
meanPower(chip::Chip &c, Seconds duration)
{
    Watts sum = Watts{0.0};
    int samples = 0;
    for (Seconds t = Seconds{0.0}; t < duration; t += kDt) {
        c.step(kDt);
        sum += c.power();
        ++samples;
    }
    return samples > 0 ? sum / double(samples) : Watts{0.0};
}

ResiliencePoint
runPoint(double biasMv, const bench::BenchOptions &options)
{
    ResiliencePoint point;
    point.biasMv = biasMv;

    pdn::Vrm vrm(1);
    chip::Chip c(benchConfig(options.seed), &vrm);
    c.setMode(chip::GuardbandMode::AdaptiveUndervolt);
    for (size_t i = 0; i < c.coreCount(); ++i)
        c.setLoad(i, chip::CoreLoad::running(1.0, 13.0_mV, 24.0_mV));
    c.settle(options.warmup > Seconds{0.0} ? options.warmup
                                           : Seconds{1.0}, kDt);

    const Watts adaptivePower = meanPower(c, options.measure);

    fault::FaultPlan plan;
    plan.cpmOptimisticBias(kFaultStart, Seconds{0.0},
                           Volts{biasMv * 1e-3});
    fault::FaultInjector injector(plan, c.coreCount());
    c.attachFaultInjector(&injector);

    // Fault phase: step until demotion (or give up after 4 s).
    const int maxSteps = int(Seconds{4.0} / kDt);
    for (int i = 0; i < maxSteps && !c.safetyDemoted(); ++i)
        c.step(kDt);
    if (c.safetyDemoted()) {
        point.timeToDemotion = injector.now() - kFaultStart;
        point.emergencies = c.totalEmergencies();
    }

    // Post-demotion: let the rail recover to the static setpoint, then
    // verify the guardband holds with the sensors still lying.
    c.settle(Seconds{0.5}, kDt);
    const int64_t settled = c.totalEmergencies();
    const Watts staticPower = meanPower(c, options.measure);
    point.postEmergencies =
        c.totalEmergencies() - settled;
    point.efficiencyDeltaPct =
        adaptivePower > Watts{0.0}
            ? 100.0 * (staticPower - adaptivePower) / adaptivePower
            : 0.0;
    return point;
}

std::vector<double>
parseBiases(const std::string &list)
{
    std::vector<double> biases;
    size_t pos = 0;
    while (pos < list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string item =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (!item.empty())
            biases.push_back(std::stod(item));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return biases;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::BenchOptions options = bench::parseOptions(argc, argv);
    const std::vector<double> biases = parseBiases(
        options.params.getString("biases_mv", "10,20,40"));

    std::vector<ResiliencePoint> points;
    points.reserve(biases.size());
    for (double bias : biases)
        points.push_back(runPoint(bias, options));

    if (options.chart) {
        std::printf("Guardband resilience: optimistic CPM bias vs "
                    "safety demotion (AdaptiveUndervolt)\n");
        std::printf("%10s %12s %12s %11s %14s\n", "bias_mv",
                    "emergencies", "t_demote_ms", "post_emerg",
                    "eff_delta_pct");
        for (const auto &p : points) {
            std::printf("%10.1f %12lld %12.1f %11lld %14.2f\n", p.biasMv,
                        (long long)p.emergencies,
                        p.timeToDemotion >= Seconds{0.0}
                            ? toMilliSeconds(p.timeToDemotion)
                            : -1.0,
                        (long long)p.postEmergencies,
                        p.efficiencyDeltaPct);
        }
    }

    auto summary = bench::benchSummary("ext_fault_resilience", options);
    std::string pointsJson = "[";
    for (size_t i = 0; i < points.size(); ++i) {
        const auto &p = points[i];
        obs::JsonLineWriter record;
        record.set("bias_mv", p.biasMv);
        record.set("emergencies", p.emergencies);
        record.set("t_demote_ms", p.timeToDemotion >= Seconds{0.0}
                                      ? toMilliSeconds(p.timeToDemotion)
                                      : -1.0);
        record.set("post_emergencies", p.postEmergencies);
        record.set("eff_delta_pct", p.efficiencyDeltaPct);
        pointsJson += (i == 0 ? "" : ", ") + record.str();
    }
    pointsJson += "]";
    summary.setRaw("points", pointsJson);
    bench::finishBench(options, summary);
    return 0;
}
