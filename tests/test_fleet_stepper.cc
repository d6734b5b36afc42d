/**
 * @file
 * FleetStepper tests: the exact shard sweep (serial, threaded,
 * tick-synchronous) must be bit-identical to stepping every chip
 * serially, and phase-sampled fast-forward must stay within the
 * divergence bounds documented in docs/PERFORMANCE.md.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "chip/chip.h"
#include "chip/chip_checkpoint.h"
#include "common/error.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "pdn/vrm.h"
#include "system/fleet_stepper.h"

namespace agsim::system {
namespace {

using namespace agsim::units;

constexpr size_t kChips = 8;
constexpr Seconds kDt{1e-3};

/**
 * Documented divergence bounds for sampled stepping (keep in sync with
 * docs/PERFORMANCE.md). Margin: mean telemetry-window worst margin.
 * MIPS proxy: mean active-core frequency integrated over windows.
 */
constexpr Volts kMarginEpsilon{10e-3};
constexpr double kMipsEpsilon = 0.01;
constexpr double kPowerEpsilon = 0.03;

/**
 * One self-contained fleet: a many-rail VRM plus one chip per rail,
 * with varied per-chip personas (seed, mode, active core count) so the
 * sweep sees heterogeneous work.
 */
struct Fleet
{
    explicit Fleet(size_t count = kChips)
        : vrm(count)
    {
        for (size_t i = 0; i < count; ++i) {
            chip::ChipConfig config;
            config.railIndex = i;
            config.seed = 0xF1EE7ull + 0x9E3779B97F4A7C15ull * i;
            config.mode = i % 2 == 0
                              ? chip::GuardbandMode::AdaptiveUndervolt
                              : chip::GuardbandMode::StaticGuardband;
            auto c = std::make_unique<chip::Chip>(config, &vrm);
            const size_t active = 2 + i % 7;
            for (size_t core = 0; core < active; ++core) {
                c->setLoad(core, chip::CoreLoad::running(1.0, 13.0_mV,
                                                         24.0_mV));
            }
            chips.push_back(std::move(c));
        }
    }

    void
    stepSerial(int64_t ticks)
    {
        for (int64_t t = 0; t < ticks; ++t) {
            for (auto &c : chips)
                c->step(kDt);
        }
    }

    void
    settle(Seconds duration = Seconds{1.5})
    {
        for (auto &c : chips)
            c->settle(duration, kDt);
        for (auto &c : chips)
            c->telemetry().clearWindows();
    }

    pdn::Vrm vrm;
    std::vector<std::unique_ptr<chip::Chip>> chips;
};

/** Every externally visible hot observable, compared exactly. */
void
expectBitIdentical(const Fleet &a, const Fleet &b)
{
    ASSERT_EQ(a.chips.size(), b.chips.size());
    for (size_t i = 0; i < a.chips.size(); ++i) {
        const chip::Chip &x = *a.chips[i];
        const chip::Chip &y = *b.chips[i];
        EXPECT_EQ(x.power().value(), y.power().value()) << "chip " << i;
        EXPECT_EQ(x.railCurrent().value(), y.railCurrent().value());
        EXPECT_EQ(x.setpoint().value(), y.setpoint().value());
        EXPECT_EQ(x.simTime().value(), y.simTime().value());
        EXPECT_EQ(x.sinceFirmware().value(), y.sinceFirmware().value());
        EXPECT_EQ(x.lastWorstMargin().value(),
                  y.lastWorstMargin().value());
        EXPECT_EQ(x.temperature().value(), y.temperature().value());
        for (size_t core = 0; core < x.coreCount(); ++core) {
            EXPECT_EQ(x.coreVoltage(core).value(),
                      y.coreVoltage(core).value())
                << "chip " << i << " core " << core;
            EXPECT_EQ(x.coreFrequency(core).value(),
                      y.coreFrequency(core).value());
        }
        ASSERT_EQ(x.telemetry().windows().size(),
                  y.telemetry().windows().size());
        if (x.telemetry().hasWindows()) {
            EXPECT_EQ(x.telemetry().latest().meanChipPower.value(),
                      y.telemetry().latest().meanChipPower.value());
            EXPECT_EQ(x.telemetry().latest().worstMargin.value(),
                      y.telemetry().latest().worstMargin.value());
        }
    }
}

/** Mean of each window's worst margin over a chip's telemetry. */
double
meanWindowWorstMargin(const chip::Chip &c)
{
    const auto &windows = c.telemetry().windows();
    double sum = 0.0;
    for (const auto &w : windows)
        sum += w.worstMargin.value();
    return windows.empty() ? 0.0 : sum / double(windows.size());
}

/** MIPS proxy: mean active-core frequency across a chip's windows. */
double
meanActiveFrequency(const chip::Chip &c)
{
    double sum = 0.0;
    size_t count = 0;
    for (const auto &w : c.telemetry().windows()) {
        for (const Hertz f : w.meanCoreFrequency) {
            if (f > Hertz{0.0}) {
                sum += f.value();
                ++count;
            }
        }
    }
    return count == 0 ? 0.0 : sum / double(count);
}

/** Mean chip power across a chip's windows. */
double
meanWindowPower(const chip::Chip &c)
{
    const auto &windows = c.telemetry().windows();
    double sum = 0.0;
    for (const auto &w : windows)
        sum += w.meanChipPower.value();
    return windows.empty() ? 0.0 : sum / double(windows.size());
}

TEST(FleetStepperExact, ShardSweepIsBitIdenticalToSerialStepping)
{
    Fleet serial;
    Fleet fleet;

    FleetStepperConfig config;
    config.sampling = false;
    config.tickBlock = 64;
    FleetStepper stepper(config);
    for (auto &c : fleet.chips)
        stepper.addChip(c.get());

    // 400 ticks spans several firmware decisions and telemetry windows,
    // and the tick count is deliberately not a tickBlock multiple.
    serial.stepSerial(400);
    stepper.run(400, kDt);

    EXPECT_EQ(stepper.exactSteps(), 400 * int64_t(kChips));
    EXPECT_EQ(stepper.fastForwardedTicks(), 0);
    expectBitIdentical(serial, fleet);
}

TEST(FleetStepperExact, ThreadedSweepIsBitIdenticalToSerialStepping)
{
    {
        Fleet serial;
        Fleet fleet;

        FleetStepperConfig config;
        config.sampling = false;
        config.threads = 2;
        FleetStepper stepper(config);
        for (auto &c : fleet.chips)
            stepper.addChip(c.get());

        serial.stepSerial(300);
        stepper.run(300, kDt);

        expectBitIdentical(serial, fleet);
    }
    {
        // Sampled mode on 3 workers over 2-chip shards: fast-forward
        // makes shard costs uneven, so workers steal, and the result
        // must still match a serial sampled run bit for bit.
        Fleet serial;
        Fleet fleet;
        serial.settle();
        fleet.settle();

        FleetStepperConfig config;
        config.sampling = true;
        config.shardSize = 2;
        FleetStepperConfig threaded = config;
        threaded.threads = 3;
        FleetStepper serialStepper(config);
        FleetStepper stepper(threaded);
        for (auto &c : serial.chips)
            serialStepper.addChip(c.get());
        for (auto &c : fleet.chips)
            stepper.addChip(c.get());

        serialStepper.run(2000, kDt);
        stepper.run(2000, kDt);

        EXPECT_GT(stepper.fastForwardedTicks(), 0);
        EXPECT_EQ(stepper.fastForwardedTicks(),
                  serialStepper.fastForwardedTicks());
        EXPECT_EQ(stepper.exactSteps(), serialStepper.exactSteps());
        expectBitIdentical(serial, fleet);
    }
}

TEST(FleetStepperExact, TickSynchronousStepMatchesChipStep)
{
    Fleet serial;
    Fleet fleet;

    FleetStepper stepper;
    for (auto &c : fleet.chips)
        stepper.addChip(c.get());

    for (int64_t t = 0; t < 200; ++t) {
        for (auto &c : serial.chips)
            c->step(kDt);
        stepper.step(kDt);
    }

    expectBitIdentical(serial, fleet);
}

TEST(FleetStepperExact, PhaseSplitEqualsMonolithicStep)
{
    Fleet whole(2);
    Fleet split(2);

    for (int64_t t = 0; t < 500; ++t) {
        for (auto &c : whole.chips)
            c->step(kDt);
        for (auto &c : split.chips) {
            c->stepSensePhase(kDt);
            c->stepControlPhase(kDt);
            c->stepCommitPhase(kDt);
        }
    }

    expectBitIdentical(whole, split);
}

TEST(FleetStepperSampled, SteadyFleetStaysWithinDocumentedBounds)
{
    Fleet exact;
    Fleet sampled;
    exact.settle();
    sampled.settle();

    FleetStepperConfig config;
    config.sampling = true;
    FleetStepper stepper(config);
    for (auto &c : sampled.chips)
        stepper.addChip(c.get());

    const int64_t ticks = 3000;
    exact.stepSerial(ticks);
    stepper.run(ticks, kDt);

    // Sampling must actually engage on a settled fleet: the majority of
    // ticks are fast-forwarded, and the re-anchor cadence bounds how
    // many ticks any one span covers without an exact re-solve.
    EXPECT_GT(stepper.fastForwardedTicks(),
              ticks * int64_t(kChips) / 2);
    EXPECT_GE(stepper.exactSteps(),
              stepper.fastForwardedTicks() /
                  config.detector.maxFastForwardTicks);

    for (size_t i = 0; i < kChips; ++i) {
        const chip::Chip &e = *exact.chips[i];
        const chip::Chip &s = *sampled.chips[i];
        // Simulated time agrees to accumulation rounding (the span
        // clock adds dt*k chunks, the exact clock adds dt k times).
        EXPECT_NEAR(e.simTime().value(), s.simTime().value(), 1e-9);
        ASSERT_EQ(e.telemetry().windows().size(),
                  s.telemetry().windows().size());
        EXPECT_NEAR(meanWindowWorstMargin(e), meanWindowWorstMargin(s),
                    kMarginEpsilon.value())
            << "chip " << i;
        const double fExact = meanActiveFrequency(e);
        const double fSampled = meanActiveFrequency(s);
        EXPECT_NEAR(fSampled, fExact, kMipsEpsilon * fExact)
            << "chip " << i;
        const double pExact = meanWindowPower(e);
        EXPECT_NEAR(meanWindowPower(s), pExact, kPowerEpsilon * pExact)
            << "chip " << i;
    }
}

TEST(FleetStepperSampled, RidesThroughFaultAndDroopStorms)
{
    Fleet exact;
    Fleet sampled;

    // Staggered rate-only droop storms on every chip plus a firmware
    // stall on one: the detector must drop to exact stepping around
    // every plan edge (forwardBudget never skips across one) and
    // re-arm in the quiet gaps.
    auto makePlan = [](size_t i) {
        fault::FaultPlan plan;
        fault::FaultSpec storm;
        storm.kind = fault::FaultKind::DroopStorm;
        storm.start = Seconds{0.2 + 0.1 * double(i)};
        storm.duration = Seconds{0.3};
        storm.magnitude = 6.0;
        plan.add(storm);
        if (i == 0) {
            fault::FaultSpec stall;
            stall.kind = fault::FaultKind::FirmwareStall;
            stall.start = Seconds{1.2};
            stall.duration = Seconds{0.2};
            plan.add(stall);
        }
        return plan;
    };
    std::vector<std::unique_ptr<fault::FaultInjector>> exactInjectors;
    std::vector<std::unique_ptr<fault::FaultInjector>> sampledInjectors;
    for (size_t i = 0; i < kChips; ++i) {
        exactInjectors.push_back(std::make_unique<fault::FaultInjector>(
            makePlan(i), exact.chips[i]->coreCount()));
        sampledInjectors.push_back(
            std::make_unique<fault::FaultInjector>(
                makePlan(i), sampled.chips[i]->coreCount()));
        exact.chips[i]->attachFaultInjector(exactInjectors[i].get());
        sampled.chips[i]->attachFaultInjector(sampledInjectors[i].get());
    }

    FleetStepperConfig config;
    config.sampling = true;
    FleetStepper stepper(config);
    for (auto &c : sampled.chips)
        stepper.addChip(c.get());

    const int64_t ticks = 2000;
    exact.stepSerial(ticks);
    stepper.run(ticks, kDt);

    // Storms force exact stepping while active, quiet gaps fast-forward.
    EXPECT_GT(stepper.fastForwardedTicks(), 0);
    EXPECT_GT(stepper.exactSteps(),
              int64_t(config.detector.window) * int64_t(kChips));

    for (size_t i = 0; i < kChips; ++i) {
        const chip::Chip &e = *exact.chips[i];
        const chip::Chip &s = *sampled.chips[i];
        EXPECT_NEAR(e.simTime().value(), s.simTime().value(), 1e-9);
        ASSERT_EQ(e.telemetry().windows().size(),
                  s.telemetry().windows().size());
        EXPECT_NEAR(meanWindowWorstMargin(e), meanWindowWorstMargin(s),
                    kMarginEpsilon.value())
            << "chip " << i;
        const double fExact = meanActiveFrequency(e);
        EXPECT_NEAR(meanActiveFrequency(s), fExact,
                    kMipsEpsilon * fExact)
            << "chip " << i;
        // No sampled-mode safety surprises: neither run demotes (the
        // storms stay within the characterized depth envelope).
        EXPECT_EQ(e.totalDemotions(), 0) << "chip " << i;
        EXPECT_EQ(s.totalDemotions(), 0) << "chip " << i;
    }
}

TEST(FleetStepperSampled, DisarmsOnExternalControlChanges)
{
    Fleet fleet;
    fleet.settle();

    FleetStepperConfig config;
    config.sampling = true;
    FleetStepper stepper(config);
    for (auto &c : fleet.chips)
        stepper.addChip(c.get());

    stepper.run(1000, kDt);
    const int64_t forwardedBefore = stepper.fastForwardedTicks();
    EXPECT_GT(forwardedBefore, 0);

    // A load change bumps the chip's state epoch; the very next sweep
    // must re-run the exact path for at least a full detector window.
    fleet.chips[0]->setLoad(7, chip::CoreLoad::running(0.5, 13.0_mV,
                                                       24.0_mV));
    const int64_t exactBefore = stepper.exactSteps();
    stepper.run(int64_t(config.detector.window), kDt);
    const int64_t exactDelta = stepper.exactSteps() - exactBefore;
    EXPECT_GE(exactDelta, int64_t(config.detector.window));
}

TEST(FleetStepperExact, InactiveChipsAreSkippedAndResyncOnReactivation)
{
    Fleet serial;
    Fleet fleet;

    FleetStepperConfig config;
    config.sampling = false;
    FleetStepper stepper(config);
    std::vector<size_t> indices;
    for (auto &c : fleet.chips)
        indices.push_back(stepper.addChip(c.get()));
    EXPECT_EQ(indices.front(), 0u);
    EXPECT_EQ(indices.back(), kChips - 1);

    serial.stepSerial(100);
    stepper.run(100, kDt);

    // Freeze chip 0 (a crashed server's socket): it makes no progress
    // and its sim clock stops; everyone else keeps stepping.
    EXPECT_TRUE(stepper.chipActive(0));
    stepper.setChipActive(0, false);
    EXPECT_FALSE(stepper.chipActive(0));
    const Seconds frozenAt = fleet.chips[0]->simTime();
    for (int64_t t = 0; t < 80; ++t) {
        for (size_t i = 1; i < kChips; ++i)
            serial.chips[i]->step(kDt);
    }
    stepper.run(80, kDt);
    EXPECT_EQ(fleet.chips[0]->simTime().value(), frozenAt.value());

    // Reactivate and continue: bit-identical to the serial reference
    // that skipped the same ticks.
    stepper.setChipActive(0, true);
    for (int64_t t = 0; t < 50; ++t) {
        for (auto &c : serial.chips)
            c->step(kDt);
    }
    stepper.run(50, kDt);
    expectBitIdentical(serial, fleet);

    EXPECT_THROW(stepper.setChipActive(kChips, true), ConfigError);
    EXPECT_THROW((void)stepper.chipActive(kChips), ConfigError);
}

TEST(FleetStepperExact, TickSynchronousStepSkipsInactiveChips)
{
    Fleet fleet(2);
    FleetStepper stepper;
    stepper.addChip(fleet.chips[0].get());
    stepper.addChip(fleet.chips[1].get());
    stepper.setChipActive(1, false);

    const int64_t exactBefore = stepper.exactSteps();
    for (int64_t t = 0; t < 20; ++t)
        stepper.step(kDt);
    EXPECT_EQ(stepper.exactSteps() - exactBefore, 20);
    EXPECT_EQ(fleet.chips[1]->simTime().value(), 0.0);
    EXPECT_GT(fleet.chips[0]->simTime().value(), 0.0);
}

/**
 * Satellite: a fastForward span that runs into a safety demotion must
 * stop at the demotion edge (consumed < requested) and count the
 * demotion exactly once — the analytic path may never blur a safety
 * action across a span.
 */
TEST(ChipFastForward, SpanBreaksAtSafetyDemotionEdge)
{
    pdn::Vrm vrm(1);
    chip::ChipConfig config;
    config.railIndex = 0;
    config.seed = 0xFA57F0ull;
    config.mode = chip::GuardbandMode::AdaptiveOverclock;
    // Span stepping emits one safety observation per firmware chunk
    // (32 ms), so the budget must be reachable at that cadence inside
    // the 0.25 s window.
    config.safety.emergencyBudget = 4;
    chip::Chip chip(config, &vrm);
    for (size_t i = 0; i < chip.coreCount(); ++i)
        chip.setLoad(i, chip::CoreLoad::running(1.0, 13.0_mV, 24.0_mV));
    chip.settle(Seconds{1.5}, kDt);

    // Storm + fleet-wide CPM dropout: blind cores get assessed against
    // the storm-scaled droop envelope, which reliably produces span
    // emergencies (same recipe as test_run_batch.cc).
    fault::FaultPlan plan;
    plan.droopStorm(Seconds{0.05}, Seconds{0.0}, 30.0, 1.8)
        .cpmDropout(Seconds{0.05}, Seconds{0.0});
    fault::FaultInjector injector(plan, chip.coreCount());
    chip.attachFaultInjector(&injector);

    // Step exactly to the plan edge (fastForward callers must never
    // cross one) so every storm-exposed observation lands inside a
    // fast-forwarded span, then fast-forward until the watchdog
    // demotes the chip.
    for (int64_t t = 0; t < 50; ++t)
        chip.step(kDt);
    ASSERT_FALSE(chip.safetyDemoted());

    // Request spans far longer than the time-to-demotion so the break
    // is unambiguous: the controller's walk-down breaks spans at every
    // setpoint move, and the demoting span must break at the demotion
    // itself rather than coast to the requested length.
    bool sawShortSpan = false;
    for (int guard = 0; guard < 100 && !chip.safetyDemoted(); ++guard) {
        const int64_t consumed = chip.fastForward(5000, kDt);
        ASSERT_GT(consumed, 0);
        ASSERT_LE(consumed, 5000);
        if (chip.safetyDemoted())
            sawShortSpan = consumed < 5000;
    }
    ASSERT_TRUE(chip.safetyDemoted());
    // The demoting span broke early instead of coasting past the edge.
    EXPECT_TRUE(sawShortSpan);
    EXPECT_EQ(chip.mode(), chip::GuardbandMode::StaticGuardband);
    EXPECT_EQ(chip.totalDemotions(), 1);
}

/**
 * Satellite: restoring a checkpoint mid-run bumps the chip's state
 * epoch, which must force an armed phase detector back to exact
 * stepping — the ticks right after a recovery edge are bit-identical
 * to a scalar chip restored from the same checkpoint.
 */
TEST(FleetStepperSampled, RestoreEpochEdgeForcesExactStepping)
{
    Fleet scalar(1);
    Fleet sampled(1);
    scalar.settle();
    sampled.settle();

    FleetStepperConfig config;
    config.sampling = true;
    FleetStepper stepper(config);
    stepper.addChip(sampled.chips[0].get());
    stepper.run(2000, kDt);
    ASSERT_GT(stepper.fastForwardedTicks(), 0);

    // A checkpoint from the (identically configured) scalar chip plays
    // the role of the recovery subsystem's restore-from-checkpoint.
    scalar.stepSerial(500);
    const chip::ChipCheckpoint checkpoint =
        scalar.chips[0]->checkpoint();
    scalar.chips[0]->restoreCheckpoint(checkpoint);
    sampled.chips[0]->restoreCheckpoint(checkpoint);

    // The next 30 ticks sit inside the detector window (32): if the
    // epoch bump disarmed the detector as required, every one of them
    // runs on the exact path and the chips stay bit-identical.
    const int64_t forwardedBefore = stepper.fastForwardedTicks();
    for (int64_t t = 0; t < 30; ++t)
        scalar.chips[0]->step(kDt);
    stepper.run(30, kDt);
    EXPECT_EQ(stepper.fastForwardedTicks(), forwardedBefore);
    expectBitIdentical(scalar, sampled);
}

} // namespace
} // namespace agsim::system
