/**
 * @file
 * ChipCheckpoint tests: a restored chip must continue *bit-identically*
 * to the checkpointed chip (the recovery subsystem's core guarantee).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <utility>

#include "chip/chip.h"
#include "chip/chip_checkpoint.h"
#include "common/error.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "pdn/vrm.h"

namespace agsim::recovery {
namespace {

using namespace agsim::units;

constexpr Seconds kDt{1e-3};

chip::ChipConfig
testConfig()
{
    chip::ChipConfig config;
    config.railIndex = 0;
    config.seed = 0xC4EC4EC4ull;
    config.mode = chip::GuardbandMode::AdaptiveUndervolt;
    return config;
}

/** A chip with a few active cores and some history behind it. */
std::unique_ptr<chip::Chip>
makeBusyChip(pdn::Vrm &vrm, int64_t warmupTicks)
{
    auto c = std::make_unique<chip::Chip>(testConfig(), &vrm);
    for (size_t core = 0; core < 5; ++core)
        c->setLoad(core, chip::CoreLoad::running(0.9, 13.0_mV, 24.0_mV));
    for (int64_t t = 0; t < warmupTicks; ++t)
        c->step(kDt);
    return c;
}

/** Every externally visible per-step observable, compared exactly. */
void
expectChipsBitIdentical(const chip::Chip &a, const chip::Chip &b)
{
    EXPECT_EQ(a.power().value(), b.power().value());
    EXPECT_EQ(a.railCurrent().value(), b.railCurrent().value());
    EXPECT_EQ(a.setpoint().value(), b.setpoint().value());
    EXPECT_EQ(a.simTime().value(), b.simTime().value());
    EXPECT_EQ(a.sinceFirmware().value(), b.sinceFirmware().value());
    EXPECT_EQ(a.lastWorstMargin().value(), b.lastWorstMargin().value());
    EXPECT_EQ(a.temperature().value(), b.temperature().value());
    for (size_t core = 0; core < a.coreCount(); ++core) {
        EXPECT_EQ(a.coreVoltage(core).value(), b.coreVoltage(core).value())
            << "core " << core;
        EXPECT_EQ(a.coreFrequency(core).value(),
                  b.coreFrequency(core).value())
            << "core " << core;
    }
}

TEST(ChipCheckpoint, RestoreResumesBitIdentically)
{
    pdn::Vrm vrmA(1);
    pdn::Vrm vrmB(1);
    auto a = makeBusyChip(vrmA, 700);

    const chip::ChipCheckpoint checkpoint = a->checkpoint();
    const size_t windowsAtCheckpoint = a->telemetry().windows().size();

    // B has the same construction parameters but a *different* history:
    // other loads, another mode, its own step count. Restore must wipe
    // all of it.
    auto b = makeBusyChip(vrmB, 123);
    b->setMode(chip::GuardbandMode::StaticGuardband);
    b->setLoad(7, chip::CoreLoad::running(0.4, 13.0_mV, 24.0_mV));
    for (int64_t t = 0; t < 50; ++t)
        b->step(kDt);

    b->restoreCheckpoint(checkpoint);
    expectChipsBitIdentical(*a, *b);
    EXPECT_TRUE(b->telemetry().windows().empty());

    for (int64_t t = 0; t < 600; ++t) {
        a->step(kDt);
        b->step(kDt);
        expectChipsBitIdentical(*a, *b);
        if (HasFailure())
            FAIL() << "diverged at tick " << t;
    }

    // B's windows are A's post-checkpoint windows, bit for bit.
    const auto &wa = a->telemetry().windows();
    const auto &wb = b->telemetry().windows();
    ASSERT_EQ(wb.size(), wa.size() - windowsAtCheckpoint);
    for (size_t i = 0; i < wb.size(); ++i) {
        EXPECT_EQ(wb[i].worstMargin.value(),
                  wa[windowsAtCheckpoint + i].worstMargin.value());
        EXPECT_EQ(wb[i].meanChipPower.value(),
                  wa[windowsAtCheckpoint + i].meanChipPower.value());
    }
}

TEST(ChipCheckpoint, RestoreResumesFaultInjectorClock)
{
    fault::FaultPlan plan;
    plan.droopStorm(Seconds{0.9}, Seconds{0.3}, 4.0, 1.0);

    pdn::Vrm vrmA(1);
    pdn::Vrm vrmB(1);
    auto a = makeBusyChip(vrmA, 0);
    auto b = makeBusyChip(vrmB, 0);
    fault::FaultInjector injectorA(plan, a->coreCount());
    fault::FaultInjector injectorB(plan, b->coreCount());
    a->attachFaultInjector(&injectorA);
    b->attachFaultInjector(&injectorB);

    // Checkpoint mid-run, before the storm window.
    for (int64_t t = 0; t < 500; ++t)
        a->step(kDt);
    const chip::ChipCheckpoint checkpoint = a->checkpoint();
    EXPECT_TRUE(checkpoint.hadInjector);
    EXPECT_NEAR(checkpoint.faultClock.value(), 0.5, 1e-12);

    // B's injector sits at t = 0; restore must jump it to 0.5 s so the
    // storm fires at the same absolute position on both timelines.
    b->restoreCheckpoint(checkpoint);
    for (int64_t t = 0; t < 900; ++t) {
        a->step(kDt);
        b->step(kDt);
    }
    expectChipsBitIdentical(*a, *b);
    EXPECT_EQ(injectorA.now().value(), injectorB.now().value());
}

/** FNV-1a over the bits of a chip's per-step observables. */
class ChipHash
{
  public:
    void add(double x)
    {
        const uint64_t bits = std::bit_cast<uint64_t>(x);
        for (int byte = 0; byte < 8; ++byte) {
            hash_ ^= (bits >> (8 * byte)) & 0xFFu;
            hash_ *= 0x100000001B3ull;
        }
    }

    void addStep(const chip::Chip &c)
    {
        add(c.power().value());
        add(c.railCurrent().value());
        add(c.setpoint().value());
        add(c.temperature().value());
        add(c.lastWorstMargin().value());
        for (size_t core = 0; core < c.coreCount(); ++core) {
            add(c.coreVoltage(core).value());
            add(c.coreFrequency(core).value());
        }
    }

    /** The CPM readings of every telemetry window from `first` on. */
    void addWindows(const chip::Chip &c, size_t first)
    {
        const auto &windows = c.telemetry().windows();
        for (size_t w = first; w < windows.size(); ++w) {
            for (size_t core = 0; core < c.coreCount(); ++core) {
                add(double(windows[w].sampleCpm[core]));
                add(double(windows[w].stickyCpm[core]));
            }
        }
    }

    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xCBF29CE484222325ull;
};

TEST(ChipCheckpoint, RestoredChipHashesLikeAnUninterruptedOne)
{
    // Mixed step sizes alternate the thermal memo, and overclock mode
    // reads CPMs away from the DVFS target; a restored chip starts with
    // the memos of another history and must not show it.
    const Seconds dts[] = {kDt, kDt, Seconds{2e-3}};
    for (chip::GuardbandMode mode :
         {chip::GuardbandMode::AdaptiveUndervolt,
          chip::GuardbandMode::AdaptiveOverclock}) {
        pdn::Vrm vrmA(1);
        pdn::Vrm vrmB(1);
        auto a = makeBusyChip(vrmA, 0);
        a->setMode(mode);
        for (int t = 0; t < 400; ++t)
            a->step(dts[t % 3]);
        const chip::ChipCheckpoint checkpoint = a->checkpoint();
        const size_t windowsAtCheckpoint = a->telemetry().windows().size();

        auto b = makeBusyChip(vrmB, 0);
        b->setTargetFrequency(Hertz{3.6e9});
        for (int t = 0; t < 150; ++t)
            b->step(Seconds{3e-3});
        b->restoreCheckpoint(checkpoint);

        ChipHash hashA;
        ChipHash hashB;
        for (int t = 0; t < 600; ++t) {
            a->step(dts[t % 3]);
            b->step(dts[t % 3]);
            hashA.addStep(*a);
            hashB.addStep(*b);
        }
        hashA.addWindows(*a, windowsAtCheckpoint);
        hashB.addWindows(*b, 0);
        EXPECT_EQ(hashA.value(), hashB.value())
            << guardbandModeName(mode);
    }
}

TEST(ChipCheckpoint, RestoreBumpsStateEpoch)
{
    pdn::Vrm vrm(1);
    auto c = makeBusyChip(vrm, 100);
    const chip::ChipCheckpoint checkpoint = c->checkpoint();
    const uint64_t epochBefore = c->stateEpoch();
    c->restoreCheckpoint(checkpoint);
    EXPECT_GT(c->stateEpoch(), epochBefore);
}

TEST(ChipCheckpoint, RestoreRejectsIdentityMismatch)
{
    pdn::Vrm vrm(1);
    auto c = makeBusyChip(vrm, 50);

    chip::ChipCheckpoint wrongSeed = c->checkpoint();
    wrongSeed.seed ^= 1;
    EXPECT_THROW(c->restoreCheckpoint(wrongSeed), ConfigError);

    chip::ChipCheckpoint wrongCores = c->checkpoint();
    wrongCores.coreCount += 1;
    EXPECT_THROW(c->restoreCheckpoint(wrongCores), ConfigError);

    // Every per-core vector is checked before anything is written. The
    // chip moves on after the capture, so a restore that wrote part of
    // the checkpoint before rejecting it would leave a different state.
    const chip::ChipCheckpoint earlier = c->checkpoint();
    for (int64_t t = 0; t < 20; ++t)
        c->step(kDt);
    const chip::ChipState before = c->state();
    ASSERT_FALSE(before == earlier.state);
    using Shorten = void (*)(chip::ChipState &);
    const std::pair<const char *, Shorten> shortenings[] = {
        {"loads", [](chip::ChipState &s) { s.loads.pop_back(); }},
        {"decomposition",
         [](chip::ChipState &s) { s.decomposition.pop_back(); }},
        {"coreVoltage", [](chip::ChipState &s) { s.coreVoltage.pop_back(); }},
        {"coreCtrlVoltage",
         [](chip::ChipState &s) { s.coreCtrlVoltage.pop_back(); }},
        {"coreCurrent", [](chip::ChipState &s) { s.coreCurrent.pop_back(); }},
        {"droopStall", [](chip::ChipState &s) { s.droopStall.pop_back(); }},
        {"dpll", [](chip::ChipState &s) { s.dpll.pop_back(); }},
        {"telemetry.lastSample",
         [](chip::ChipState &s) { s.telemetry.lastSample.pop_back(); }},
        {"telemetry.stickyMin",
         [](chip::ChipState &s) { s.telemetry.stickyMin.pop_back(); }},
        {"telemetry.voltageSum",
         [](chip::ChipState &s) { s.telemetry.voltageSum.pop_back(); }},
        {"telemetry.frequencySum",
         [](chip::ChipState &s) { s.telemetry.frequencySum.pop_back(); }},
    };
    for (const auto &[name, shorten] : shortenings) {
        chip::ChipCheckpoint wrongLength = earlier;
        shorten(wrongLength.state);
        EXPECT_THROW(c->restoreCheckpoint(wrongLength), ConfigError)
            << name;
        EXPECT_TRUE(c->state() == before) << name;
    }
}

/**
 * The completeness check for ChipState: a chip restored from another
 * chip's checkpoint holds a state equal to the source's after every
 * tick, across fault onsets and expiries, a safety demotion and re-arm,
 * fastForward spans and a second restore. State kept outside ChipState
 * (or left out of the copy) shows up as the first unequal tick.
 */
TEST(ChipCheckpoint, RestoredStateEqualsTheSourceAfterEveryTick)
{
    chip::ChipConfig config = testConfig();
    config.undervolt.maxUndervolt = Volts{0.120};
    config.safety.rearmInterval = Seconds{0.1};

    fault::FaultPlan plan;
    plan.droopStorm(Seconds{0.06}, Seconds{0.08}, 4.0, 1.5);
    plan.cpmStuckAt(Seconds{0.10}, Seconds{0.05}, 2, 1);
    plan.cpmOptimisticBias(Seconds{0.10}, Seconds{0.30}, Volts{40e-3});
    plan.vrmDacOffset(Seconds{0.42}, Seconds{0.05}, Volts{-0.01});
    plan.firmwareStall(Seconds{0.45}, Seconds{0.07});

    pdn::Vrm vrmA(1);
    pdn::Vrm vrmB(1);
    chip::Chip a(config, &vrmA);
    chip::Chip b(config, &vrmB);
    fault::FaultInjector injectorA(plan, a.coreCount());
    fault::FaultInjector injectorB(plan, b.coreCount());
    a.attachFaultInjector(&injectorA);
    b.attachFaultInjector(&injectorB);
    for (size_t core = 0; core < 7; ++core)
        a.setLoad(core, chip::CoreLoad::running(1.0, 13.0_mV, 24.0_mV));
    a.setLoad(7, chip::CoreLoad::powerGated());

    // B gets another history: other loads and target, the whole fault
    // plan, and it stops on the tick of its re-arm, so even the
    // per-step counters and the firmware-stall count differ from A's.
    b.setTargetFrequency(Hertz{4.0e9});
    for (size_t core = 0; core < 8; ++core)
        b.setLoad(core, chip::CoreLoad::running(1.0, 13.0_mV, 24.0_mV));
    for (int t = 0; t < 50; ++t)
        a.step(kDt);
    for (int t = 0; t < 3000 && b.totalRearms() == 0; ++t)
        b.step(kDt);
    ASSERT_EQ(b.totalRearms(), 1);
    ASSERT_GT(b.missedFirmwareTicks(), 0);
    ASSERT_FALSE(a.state() == b.state());

    b.restoreCheckpoint(a.checkpoint());
    ASSERT_TRUE(a.state() == b.state());

    int ticks = 0;
    auto lockstep = [&](int count) {
        for (int t = 0; t < count; ++t, ++ticks) {
            a.step(kDt);
            b.step(kDt);
            ASSERT_TRUE(a.state() == b.state())
                << "states differ after tick " << ticks;
        }
    };

    // Through every fault's onset and expiry, the demotion the biased
    // CPMs cause and the re-arm after they clear.
    lockstep(700);
    if (HasFatalFailure())
        return;
    EXPECT_GE(a.totalDemotions(), 1);
    EXPECT_GE(a.totalRearms(), 1);
    EXPECT_GT(a.missedFirmwareTicks(), 0);
    EXPECT_GT(a.latchedDroopDepth(), Volts{0.0});

    // fastForward spans in the quiet tail.
    for (int span = 0; span < 5; ++span) {
        EXPECT_EQ(a.fastForward(100, kDt), b.fastForward(100, kDt));
        ASSERT_TRUE(a.state() == b.state()) << "after span " << span;
        lockstep(5);
        if (HasFatalFailure())
            return;
    }

    // A second restore, mid-run, after B wandered off again.
    const chip::ChipCheckpoint midRun = a.checkpoint();
    b.setMode(chip::GuardbandMode::StaticGuardband);
    b.setLoad(7, chip::CoreLoad::running(0.7, 13.0_mV, 24.0_mV));
    for (int t = 0; t < 30; ++t)
        b.step(kDt);
    ASSERT_FALSE(a.state() == b.state());
    b.restoreCheckpoint(midRun);
    ASSERT_TRUE(a.state() == b.state());
    lockstep(300);
}

} // namespace
} // namespace agsim::recovery
