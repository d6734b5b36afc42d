/**
 * @file
 * ChipHealthView: the typed safety-telemetry snapshot the scheduler
 * layer consumes, plus the public Chip counter/CSV parity it rides on.
 */

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chip/chip.h"
#include "chip/chip_health.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "pdn/vrm.h"
#include "sensors/telemetry_csv.h"

using namespace agsim;
using namespace agsim::chip;
using namespace agsim::units;

namespace {

constexpr Seconds kDt = Seconds{1e-3};

/** One chip with loads applied and (optionally) a fault plan attached. */
struct HealthRig
{
    explicit HealthRig(GuardbandMode mode, const fault::FaultPlan &plan =
                                               fault::FaultPlan(),
                       int maxRearms = 2)
        : vrm(1)
    {
        ChipConfig config;
        // Let an injected optimistic lie express fully instead of being
        // clipped at the default 80 mV walk limit.
        config.undervolt.maxUndervolt = Volts{0.120};
        config.safety.maxRearms = maxRearms;
        chip = std::make_unique<Chip>(config, &vrm);
        chip->setMode(mode);
        for (size_t i = 0; i < chip->coreCount(); ++i)
            chip->setLoad(i, CoreLoad::running(1.0, 13.0_mV, 24.0_mV));
        if (!plan.faults.empty()) {
            injector = std::make_unique<fault::FaultInjector>(
                plan, chip->coreCount());
            chip->attachFaultInjector(injector.get());
        }
    }

    /** Step for a duration (dt-quantized). */
    void
    run(Seconds duration)
    {
        const int steps = int(duration / kDt + 0.5);
        for (int i = 0; i < steps; ++i)
            chip->step(kDt);
    }

    pdn::Vrm vrm;
    std::unique_ptr<Chip> chip;
    std::unique_ptr<fault::FaultInjector> injector;
};

/** The standard demotion trigger: a permanent optimistic CPM lie. */
fault::FaultPlan
lyingCpms(Seconds start = Seconds{0.1}, Seconds duration = Seconds{0.0})
{
    fault::FaultPlan plan;
    plan.cpmOptimisticBias(start, duration, Volts{40e-3});
    return plan;
}

} // namespace

TEST(ChipHealthView, HealthyAdaptiveChip)
{
    HealthRig rig(GuardbandMode::AdaptiveUndervolt);
    rig.run(Seconds{0.5});

    const ChipHealthView view = rig.chip->healthView();
    EXPECT_EQ(view.state, SafetyState::Monitoring);
    EXPECT_EQ(view.commandedMode, GuardbandMode::AdaptiveUndervolt);
    EXPECT_EQ(view.effectiveMode, GuardbandMode::AdaptiveUndervolt);
    EXPECT_TRUE(view.healthy());
    EXPECT_TRUE(view.adaptiveCommanded());
    EXPECT_FALSE(view.demoted());
    EXPECT_EQ(view.demotions, 0);
    EXPECT_EQ(view.rearms, 0);
    EXPECT_NEAR(view.rearmBudget, Seconds{0.0}, Seconds{1e-12});

    const std::string text = describeChipHealth(view);
    EXPECT_NE(text.find("monitoring"), std::string::npos);
    EXPECT_NE(text.find("undervolt"), std::string::npos);
}

TEST(ChipHealthView, StaticChipIsHealthyButNotAdaptive)
{
    HealthRig rig(GuardbandMode::StaticGuardband);
    rig.run(Seconds{0.2});

    const ChipHealthView view = rig.chip->healthView();
    EXPECT_TRUE(view.healthy());
    EXPECT_FALSE(view.adaptiveCommanded());
    EXPECT_FALSE(view.demoted());
}

TEST(ChipHealthView, DemotionReflectedWithRearmBudget)
{
    HealthRig rig(GuardbandMode::AdaptiveUndervolt, lyingCpms());
    rig.run(Seconds{1.0});
    ASSERT_TRUE(rig.chip->safetyDemoted());

    const ChipHealthView view = rig.chip->healthView();
    EXPECT_EQ(view.state, SafetyState::Demoted);
    EXPECT_TRUE(view.demoted());
    EXPECT_FALSE(view.healthy());
    // The operator's command survives the demotion; the effective mode
    // is the safety fallback.
    EXPECT_EQ(view.commandedMode, GuardbandMode::AdaptiveUndervolt);
    EXPECT_EQ(view.effectiveMode, GuardbandMode::StaticGuardband);
    EXPECT_TRUE(view.adaptiveCommanded());
    EXPECT_EQ(view.demotions, 1);
    EXPECT_GE(view.emergencies, 8); // the demotion budget
    // First demotion: the clean interval required is rearmInterval (1 s)
    // and some of it has already elapsed in static mode.
    EXPECT_GT(view.rearmBudget, Seconds{0.0});
    EXPECT_LE(view.rearmBudget, Seconds{1.0});

    EXPECT_NE(describeChipHealth(view).find("rearm in"),
              std::string::npos);
}

TEST(ChipHealthView, RearmBudgetCountsDownAndRearms)
{
    HealthRig rig(GuardbandMode::AdaptiveUndervolt,
                  lyingCpms(Seconds{0.1}, Seconds{0.2}));
    rig.run(Seconds{0.4}); // fault expires at 0.3; demotion is earlier
    ASSERT_TRUE(rig.chip->safetyDemoted());

    const Seconds before = rig.chip->healthView().rearmBudget;
    rig.run(Seconds{0.2});
    const Seconds after = rig.chip->healthView().rearmBudget;
    EXPECT_NEAR(before - after, Seconds{0.2}, Seconds{0.02});

    // Step until the monitor re-arms (1 s clean required).
    rig.run(Seconds{1.0});
    const ChipHealthView view = rig.chip->healthView();
    EXPECT_EQ(view.state, SafetyState::Monitoring);
    EXPECT_EQ(view.rearms, 1);
    EXPECT_EQ(view.effectiveMode, GuardbandMode::AdaptiveUndervolt);
    EXPECT_TRUE(view.healthy());
    EXPECT_EQ(rig.chip->totalRearms(), 1);
}

TEST(ChipHealthView, LatchedChipReportsNegativeBudget)
{
    HealthRig rig(GuardbandMode::AdaptiveUndervolt, lyingCpms(),
                  /*maxRearms=*/0);
    rig.run(Seconds{1.0});

    const ChipHealthView view = rig.chip->healthView();
    EXPECT_EQ(view.state, SafetyState::Latched);
    EXPECT_TRUE(view.demoted());
    EXPECT_LT(view.rearmBudget, Seconds{0.0});
    EXPECT_NE(describeChipHealth(view).find("latched"),
              std::string::npos);
}

TEST(ChipHealthView, LatchedDroopDepthTracksStormsAndResets)
{
    fault::FaultPlan storm;
    storm.droopStorm(Seconds{0.1}, Seconds{0.0}, 10.0, 2.0);
    HealthRig stormy(GuardbandMode::StaticGuardband, storm);
    HealthRig calm(GuardbandMode::StaticGuardband);
    stormy.run(Seconds{1.0});
    calm.run(Seconds{1.0});

    // The sticky maximum is monotone and storm-scaled depths dominate
    // the healthy worst case.
    EXPECT_GT(stormy.chip->latchedDroopDepth(), Volts{0.0});
    EXPECT_GT(stormy.chip->latchedDroopDepth(),
              calm.chip->latchedDroopDepth());
    EXPECT_GT(stormy.chip->healthView().latchedDroopDepth, Volts{0.0});

    // An operator mode command acknowledges the reading.
    stormy.chip->setMode(GuardbandMode::StaticGuardband);
    EXPECT_NEAR(stormy.chip->latchedDroopDepth(), Volts{0.0},
                Volts{1e-12});
}

namespace {

/** Sum an integer CSV column over all data rows. */
int64_t
sumCsvColumn(const std::string &csv, const std::string &column)
{
    std::istringstream in(csv);
    std::string header;
    EXPECT_TRUE(std::getline(in, header) && !header.empty());

    const auto split = [](const std::string &line) {
        std::vector<std::string> cells;
        std::istringstream ls(line);
        std::string cell;
        while (std::getline(ls, cell, ','))
            cells.push_back(cell);
        return cells;
    };

    const std::vector<std::string> names = split(header);
    size_t index = names.size();
    for (size_t i = 0; i < names.size(); ++i) {
        if (names[i] == column)
            index = i;
    }
    EXPECT_LT(index, names.size()) << "column not found: " << column;

    int64_t sum = 0;
    std::string line;
    while (std::getline(in, line)) {
        const auto cells = split(line);
        EXPECT_EQ(cells.size(), names.size());
        sum += std::stoll(cells[index]);
    }
    return sum;
}

} // namespace

/**
 * Satellite fix check: the safety counters exported on the public Chip
 * telemetry/CSV path agree with the SafetyMonitor's totals. Run an
 * exact multiple of the 32 ms telemetry window so every event lands in
 * a closed (exported) window.
 */
TEST(ChipHealthView, CsvSafetyCountersMatchChipTotals)
{
    HealthRig rig(GuardbandMode::AdaptiveUndervolt,
                  lyingCpms(Seconds{0.1}, Seconds{0.2}));
    rig.run(Seconds{2.368}); // 74 windows: demote, re-arm, stay clean

    ASSERT_EQ(rig.chip->totalDemotions(), 1);
    ASSERT_EQ(rig.chip->totalRearms(), 1);
    ASSERT_GE(rig.chip->totalEmergencies(), 8);

    const std::string csv = sensors::telemetryCsvString(rig.chip->telemetry());
    // The CSV column counts per-core ground-truth violations; the
    // monitor counts emergency *steps* (several cores can trip in one),
    // so the export can only be >= the monitor's total.
    EXPECT_GE(sumCsvColumn(csv, "emergencies"),
              rig.chip->totalEmergencies());
    EXPECT_EQ(sumCsvColumn(csv, "demotions"), rig.chip->totalDemotions());
    EXPECT_EQ(sumCsvColumn(csv, "rearms"), rig.chip->totalRearms());

    // Counter facade parity with the underlying monitor state.
    EXPECT_EQ(rig.chip->totalEmergencies(),
              rig.chip->state().safety.totalEmergencies);
    EXPECT_EQ(rig.chip->totalDemotions(),
              rig.chip->state().safety.demotions);
    EXPECT_EQ(rig.chip->totalRearms(), rig.chip->state().safety.rearms);
}
