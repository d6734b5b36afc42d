/**
 * @file
 * ChipCheckpoint tests: a restored chip must continue *bit-identically*
 * to the checkpointed chip (the recovery subsystem's core guarantee).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

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

    chip::ChipCheckpoint wrongLength = c->checkpoint();
    wrongLength.state.coreVoltage.pop_back();
    EXPECT_THROW(c->restoreCheckpoint(wrongLength), ConfigError);
}

} // namespace
} // namespace agsim::recovery
