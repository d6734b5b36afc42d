/**
 * @file
 * Arrival-process tests: shape correctness of every traffic kind and
 * the determinism contract the fleet service leans on (same seed ->
 * bit-identical count sequence, regardless of who else draws RNG or
 * whether telemetry/tracing is active).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "workload/arrivals.h"

namespace agsim::workload {
namespace {

constexpr Seconds kDt{0.01};

std::vector<uint64_t>
drawSequence(const ArrivalConfig &config, size_t steps)
{
    ArrivalProcess process(config);
    std::vector<uint64_t> counts;
    counts.reserve(steps);
    for (size_t k = 0; k < steps; ++k)
        counts.push_back(process.draw(kDt * double(k), kDt));
    return counts;
}

TEST(Arrivals, SteadyMeanMatchesRate)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Steady;
    config.baseRatePerSec = 2000.0;
    ArrivalProcess process(config);
    const size_t steps = 2000;
    uint64_t total = 0;
    for (size_t k = 0; k < steps; ++k)
        total += process.draw(kDt * double(k), kDt);
    const double expected =
        config.baseRatePerSec * kDt.value() * double(steps);
    // Poisson with ~40k expected events: 5 sigma is ~1000.
    EXPECT_NEAR(double(total), expected, 5.0 * std::sqrt(expected));
    EXPECT_EQ(process.totalDrawn(), total);
}

TEST(Arrivals, IdenticalSeedsAreBitIdentical)
{
    for (ArrivalKind kind :
         {ArrivalKind::Steady, ArrivalKind::Diurnal, ArrivalKind::Mmpp,
          ArrivalKind::FlashCrowd}) {
        ArrivalConfig config;
        config.kind = kind;
        EXPECT_EQ(drawSequence(config, 500), drawSequence(config, 500))
            << arrivalKindName(kind);
    }
}

TEST(Arrivals, SequenceUnaffectedByOtherRngStreams)
{
    // The service's worker count or telemetry setting must not bleed
    // into arrival draws: the process owns a private stream. Interleave
    // unrelated draws from other engines and compare.
    ArrivalConfig config;
    config.kind = ArrivalKind::Mmpp;
    const std::vector<uint64_t> clean = drawSequence(config, 300);

    ArrivalProcess process(config);
    Rng noise(12345, 99);
    std::vector<uint64_t> interleaved;
    for (size_t k = 0; k < 300; ++k) {
        (void)noise.uniform();
        interleaved.push_back(process.draw(kDt * double(k), kDt));
        (void)noise.poisson(3.0);
    }
    EXPECT_EQ(clean, interleaved);
}

TEST(Arrivals, ResetRewindsTheSequence)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Mmpp;
    ArrivalProcess process(config);
    std::vector<uint64_t> first;
    for (size_t k = 0; k < 200; ++k)
        first.push_back(process.draw(kDt * double(k), kDt));
    process.reset();
    EXPECT_EQ(process.totalDrawn(), 0u);
    std::vector<uint64_t> second;
    for (size_t k = 0; k < 200; ++k)
        second.push_back(process.draw(kDt * double(k), kDt));
    EXPECT_EQ(first, second);
}

TEST(Arrivals, DiurnalSweepsTroughToPeak)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Diurnal;
    config.baseRatePerSec = 1000.0;
    config.diurnalPeriod = Seconds{10.0};
    config.diurnalAmplitude = 0.5;
    ArrivalProcess process(config);
    // Trough at phase 0, peak at half period.
    EXPECT_NEAR(process.rate(Seconds{0.0}), 500.0, 1e-9);
    EXPECT_NEAR(process.rate(Seconds{5.0}), 1500.0, 1e-9);
    EXPECT_NEAR(process.rate(Seconds{10.0}), 500.0, 1e-9);
}

TEST(Arrivals, FlashCrowdRampsAndDecays)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::FlashCrowd;
    config.baseRatePerSec = 100.0;
    config.flashStart = Seconds{2.0};
    config.flashRise = Seconds{2.0};
    config.flashHold = Seconds{4.0};
    config.flashDecay = Seconds{2.0};
    config.flashMultiplier = 5.0;
    ArrivalProcess process(config);
    EXPECT_NEAR(process.rate(Seconds{0.0}), 100.0, 1e-9);
    EXPECT_NEAR(process.rate(Seconds{3.0}), 300.0, 1e-9); // mid-rise
    EXPECT_NEAR(process.rate(Seconds{5.0}), 500.0, 1e-9); // hold
    EXPECT_NEAR(process.rate(Seconds{9.0}), 300.0, 1e-9); // mid-decay
    EXPECT_NEAR(process.rate(Seconds{20.0}), 100.0, 1e-9);
}

TEST(Arrivals, MmppVisitsBothStates)
{
    ArrivalConfig config;
    config.kind = ArrivalKind::Mmpp;
    config.baseRatePerSec = 1000.0;
    config.burstMultiplier = 8.0;
    config.calmMeanDuration = Seconds{0.2};
    config.burstMeanDuration = Seconds{0.1};
    ArrivalProcess process(config);
    bool sawBurst = false;
    bool sawCalm = false;
    for (size_t k = 0; k < 2000; ++k) {
        process.draw(kDt * double(k), kDt);
        (process.bursting() ? sawBurst : sawCalm) = true;
    }
    EXPECT_TRUE(sawBurst);
    EXPECT_TRUE(sawCalm);
}

TEST(Arrivals, KindNamesRoundTrip)
{
    for (ArrivalKind kind :
         {ArrivalKind::Steady, ArrivalKind::Diurnal, ArrivalKind::Mmpp,
          ArrivalKind::FlashCrowd}) {
        EXPECT_EQ(arrivalKindFromName(arrivalKindName(kind)), kind);
    }
    EXPECT_THROW(arrivalKindFromName("tsunami"), ConfigError);
}

TEST(Arrivals, ValidationRejectsNonsense)
{
    ArrivalConfig config;
    config.baseRatePerSec = 0.0;
    EXPECT_THROW(ArrivalProcess{config}, ConfigError);
    config = ArrivalConfig();
    config.diurnalAmplitude = 1.5;
    EXPECT_THROW(ArrivalProcess{config}, ConfigError);
    config = ArrivalConfig();
    config.burstMultiplier = 0.5;
    EXPECT_THROW(ArrivalProcess{config}, ConfigError);
    config = ArrivalConfig();
    config.flashMultiplier = 0.0;
    EXPECT_THROW(ArrivalProcess{config}, ConfigError);
    config = ArrivalConfig();
    config.calmMeanDuration = Seconds{0.0};
    EXPECT_THROW(ArrivalProcess{config}, ConfigError);
}

} // namespace
} // namespace agsim::workload
