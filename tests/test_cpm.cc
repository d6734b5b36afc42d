/**
 * @file
 * CPM sensor tests: the 0-11 edge detector, ~21 mV/bit sensitivity
 * (Fig. 6a), calibration semantics, voltage inversion, bank behaviour
 * and per-core variance classes (Fig. 6b).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "common/units.h"
#include "power/vf_curve.h"
#include "sensors/cpm.h"
#include "sensors/cpm_bank.h"
#include "stats/accumulator.h"
#include "stats/linear_fit.h"

namespace agsim::sensors {
namespace {

using namespace agsim::units;
using power::VfCurve;

class CpmTest : public ::testing::Test
{
  protected:
    VfCurve curve_;
    CpmParams params_;
};

TEST_F(CpmTest, CalibrationPointReadsCalibrationPosition)
{
    Cpm cpm(&curve_, params_, 1.0, 0.0);
    const Hertz f = 4.2_GHz;
    const Volts v = curve_.vminAt(f) + curve_.params().calibratedMargin;
    EXPECT_EQ(cpm.read(v, f), params_.calibrationPosition);
}

TEST_F(CpmTest, OutputClampsToDetectorRange)
{
    Cpm cpm(&curve_, params_, 1.0, 0.0);
    EXPECT_EQ(cpm.read(Volts{0.5}, 4.2_GHz), 0);
    EXPECT_EQ(cpm.read(Volts{2.0}, 4.2_GHz), params_.positions - 1);
}

TEST_F(CpmTest, MonotoneInVoltage)
{
    Cpm cpm(&curve_, params_, 1.0, 0.0);
    int prev = -1;
    for (Volts v = Volts{0.95}; v <= Volts{1.25}; v += Volts{0.005}) {
        const int value = cpm.read(v, 4.2_GHz);
        EXPECT_GE(value, prev);
        prev = value;
    }
}

TEST_F(CpmTest, HigherFrequencyReadsLower)
{
    // Fig. 6a: at fixed voltage, higher frequency -> tighter margin.
    Cpm cpm(&curve_, params_, 1.0, 0.0);
    const Volts v = Volts{1.15};
    EXPECT_LT(cpm.read(v, 4.2_GHz), cpm.read(v, 3.6_GHz));
}

TEST_F(CpmTest, SensitivityNear21mVPerBitAtPeak)
{
    Cpm cpm(&curve_, params_, 1.0, 0.0);
    EXPECT_NEAR(toMilliVolts(cpm.voltsPerBit(4.2_GHz)), 21.0, 0.01);
    // Lower frequency -> more mV per bit (Fig. 6b trend).
    EXPECT_GT(cpm.voltsPerBit(3.6_GHz), cpm.voltsPerBit(4.2_GHz));
}

TEST_F(CpmTest, LinearFitRecoversSensitivity)
{
    // Reproduce the Fig. 6a methodology: sweep voltage, fit CPM-vs-V,
    // slope inverse should be ~21 mV/bit.
    Cpm cpm(&curve_, params_, 1.0, 0.0);
    stats::LinearFit fit;
    for (Volts v = Volts{1.10}; v <= Volts{1.22}; v += Volts{0.002}) {
        const double raw = cpm.rawPosition(v, 4.2_GHz);
        if (raw > 0.5 && raw < 10.5)
            fit.add(v.value(), raw);
    }
    ASSERT_GT(fit.count(), 10u);
    EXPECT_NEAR(1.0 / fit.slope(), 0.021, 0.001);
}

TEST_F(CpmTest, PositionToVoltageInvertsRead)
{
    Cpm cpm(&curve_, params_, 1.0, 0.0);
    const Hertz f = 4.0_GHz;
    for (Volts v = Volts{1.05}; v <= Volts{1.18}; v += Volts{0.01}) {
        const double raw = cpm.rawPosition(v, f);
        if (raw <= 0.0 || raw >= 11.0)
            continue;
        EXPECT_NEAR(cpm.positionToVoltage(raw, f), v, 1e-9);
    }
}

TEST_F(CpmTest, OffsetShiftsReading)
{
    Cpm centered(&curve_, params_, 1.0, 0.0);
    Cpm offset(&curve_, params_, 1.0, 1.0);
    const Volts v = Volts{1.15};
    EXPECT_EQ(offset.read(v, 4.2_GHz), centered.read(v, 4.2_GHz) + 1);
}

TEST_F(CpmTest, SensitivityScaleChangesSlope)
{
    Cpm nominal(&curve_, params_, 1.0, 0.0);
    Cpm insensitive(&curve_, params_, 1.5, 0.0);
    EXPECT_NEAR(insensitive.voltsPerBit(4.2_GHz),
                1.5 * nominal.voltsPerBit(4.2_GHz), 1e-12);
}

TEST_F(CpmTest, RejectsBadConstruction)
{
    EXPECT_THROW(Cpm(nullptr, params_, 1.0, 0.0), ConfigError);
    EXPECT_THROW(Cpm(&curve_, params_, 0.0, 0.0), ConfigError);
    CpmParams bad = params_;
    bad.positions = 1;
    EXPECT_THROW(Cpm(&curve_, bad, 1.0, 0.0), ConfigError);
    bad = params_;
    bad.calibrationPosition = 12;
    EXPECT_THROW(Cpm(&curve_, bad, 1.0, 0.0), ConfigError);
}

TEST_F(CpmTest, HugeExcessClampsToDetectorEnds)
{
    // The clamp happens before the conversion to int, so no excess is
    // too large to quantize.
    Cpm cpm(&curve_, params_, 1.0, 0.0);
    EXPECT_EQ(cpm.readAt(Volts{1e300}, 1.0), params_.positions - 1);
    EXPECT_EQ(cpm.readAt(Volts{-1e300}, 1.0), 0);
    EXPECT_EQ(cpm.read(Volts{1e300}, 4.2_GHz), params_.positions - 1);
    EXPECT_EQ(cpm.read(Volts{-1e300}, 4.2_GHz), 0);
}

class CpmBankTest : public ::testing::Test
{
  protected:
    /** The bank's lowest reading at (v, f), CPM by CPM. */
    static int lowestRead(const CpmBank &bank, Volts v, Hertz f)
    {
        int lowest = bank.read(0, v, f);
        for (size_t i = 1; i < bank.size(); ++i)
            lowest = std::min(lowest, bank.read(i, v, f));
        return lowest;
    }

    /** The bank's lowest control bias at f, CPM by CPM, no fault. */
    static Volts lowestBias(const CpmBank &bank, Hertz f)
    {
        Volts lowest = bank.cpm(0).controlOffsetBits() *
                       bank.cpm(0).voltsPerBit(f);
        for (size_t i = 1; i < bank.size(); ++i) {
            lowest = std::min(lowest, bank.cpm(i).controlOffsetBits() *
                                          bank.cpm(i).voltsPerBit(f));
        }
        return lowest;
    }

    VfCurve curve_;
    CpmParams params_;
};

TEST_F(CpmBankTest, FiveCpmsPerCore)
{
    CpmBank bank(&curve_, params_, 0, 42);
    EXPECT_EQ(bank.size(), 5u);
}

TEST_F(CpmBankTest, MeanVoltsPerBitAveragesInstances)
{
    CpmBank bank(&curve_, params_, 1, 42);
    const Hertz f = 4.2_GHz;
    Volts sum;
    for (size_t i = 0; i < bank.size(); ++i)
        sum += bank.voltsPerBit(i, f);
    EXPECT_DOUBLE_EQ(bank.meanVoltsPerBit(f).value(),
                     (sum / double(bank.size())).value());
}

TEST_F(CpmBankTest, MinReadIsLowestInstance)
{
    CpmBank bank(&curve_, params_, 1, 42);
    const Volts v = Volts{1.16};
    const Hertz f = 4.2_GHz;
    int lowest = params_.positions;
    for (size_t i = 0; i < bank.size(); ++i)
        lowest = std::min(lowest, bank.read(i, v, f));
    EXPECT_EQ(bank.minRead(v, f), lowest);
}

TEST_F(CpmBankTest, MemoizedReadsMatchPerCpmReads)
{
    // Frequencies revisited after others replaced them in the memo,
    // and a const read at a frequency never memoized.
    CpmBank bank(&curve_, params_, 1, 42);
    const Hertz f1 = 4.2_GHz;
    const Hertz f2 = 3.7_GHz;
    const Hertz f3 = 2.8_GHz;
    for (Hertz f : {f1, f2, f1, f3, f2, f1}) {
        bank.memoize(f);
        for (Hertz g : {f, 3.3_GHz}) {
            for (int mv = 1000; mv <= 1250; mv += 2) {
                const Volts v{mv * 1e-3};
                ASSERT_EQ(bank.minRead(v, g), lowestRead(bank, v, g))
                    << "f " << f.value() << " g " << g.value() << " v " << mv;
            }
            EXPECT_EQ(bank.controlBias(g).value(),
                      lowestBias(bank, g).value());
        }
    }
}

TEST_F(CpmBankTest, FaultsSetAfterMemoizeStillShow)
{
    CpmBank bank(&curve_, params_, 3, 42);
    const Hertz f = 4.2_GHz;
    const Volts v{1.16};
    bank.memoize(f);
    const int healthy = bank.minRead(v, f);
    const Volts healthyControl = bank.controlVoltage(v, f);
    EXPECT_EQ(healthyControl.value(), (v + lowestBias(bank, f)).value());

    CpmFault bias;
    bias.biasVolts = Volts{0.03};
    bank.setFault(bias);
    EXPECT_EQ(bank.minRead(v, f), lowestRead(bank, v + bias.biasVolts, f));
    EXPECT_GT(bank.minRead(v, f), healthy);
    EXPECT_EQ(bank.controlVoltage(v, f).value(),
              (v + (lowestBias(bank, f) + bias.biasVolts)).value());

    CpmFault stuck;
    stuck.stuckPosition = 7;
    bank.setFault(stuck);
    EXPECT_EQ(bank.minRead(v, f), 7);
    EXPECT_EQ(bank.controlVoltage(v, f).value(),
              bank.cpm(0).positionToVoltage(7.0, f).value());

    CpmFault dark;
    dark.dropout = true;
    bank.setFault(dark);
    EXPECT_EQ(bank.minRead(v, f), params_.positions - 1);
    EXPECT_EQ(bank.controlVoltage(v, f).value(),
              bank.cpm(0)
                  .positionToVoltage(double(params_.positions - 1), f)
                  .value());

    bank.clearFault();
    EXPECT_EQ(bank.minRead(v, f), healthy);
    EXPECT_EQ(bank.controlVoltage(v, f).value(), healthyControl.value());
}

TEST_F(CpmBankTest, PersonalityFrozenBySeed)
{
    CpmBank a(&curve_, params_, 3, 42);
    CpmBank b(&curve_, params_, 3, 42);
    CpmBank c(&curve_, params_, 3, 43);
    const Volts v = Volts{1.15};
    const Hertz f = 4.2_GHz;
    EXPECT_DOUBLE_EQ(a.meanRaw(v, f), b.meanRaw(v, f));
    EXPECT_NE(a.meanRaw(v, f), c.meanRaw(v, f));
}

TEST_F(CpmBankTest, VarianceClassesMatchFig6b)
{
    // Cores 1, 3, 5 show wider CPM spread than cores 2, 6, 7.
    const Hertz f = 4.2_GHz;
    auto spread = [&](size_t coreId) {
        stats::Accumulator acc;
        // Average the sensitivity spread over many personalities.
        for (uint64_t seed = 0; seed < 64; ++seed) {
            CpmBank bank(&curve_, params_, coreId, seed);
            stats::Accumulator vpb;
            for (size_t i = 0; i < bank.size(); ++i)
                vpb.add(bank.voltsPerBit(i, f).value());
            acc.add(vpb.stddev());
        }
        return acc.mean();
    };
    EXPECT_GT(spread(1), spread(2));
    EXPECT_GT(spread(3), spread(6));
    EXPECT_GT(spread(5), spread(7));
}

TEST_F(CpmBankTest, ChipArrayHas40Cpms)
{
    ChipCpmArray array(&curve_, params_, 8, 42);
    size_t total = 0;
    for (size_t core = 0; core < array.coreCount(); ++core)
        total += array.bank(core).size();
    EXPECT_EQ(total, 40u);
}

TEST_F(CpmBankTest, ChipMeanRawAveragesBanks)
{
    ChipCpmArray array(&curve_, params_, 8, 42);
    std::vector<Volts> voltages(8, Volts{1.16});
    std::vector<Hertz> freqs(8, Hertz{4.2e9});
    const double mean = array.chipMeanRaw(voltages, freqs);
    // Should be within the detector's representable band.
    EXPECT_GT(mean, 0.0);
    EXPECT_LT(mean, 11.0);
    // Raising every core's voltage raises the mean.
    std::vector<Volts> higher(8, Volts{1.19});
    EXPECT_GT(array.chipMeanRaw(higher, freqs), mean);
}

} // namespace
} // namespace agsim::sensors
