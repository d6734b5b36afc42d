/**
 * @file
 * Deterministic pseudo-random number generation for the simulator.
 *
 * agsim needs reproducible stochastic behaviour (di/dt noise, CPM process
 * variation, query arrivals) that is stable across platforms and standard
 * library implementations, so we ship our own generator rather than rely on
 * std::mt19937 + std::*_distribution (whose outputs are not portable).
 *
 * The generator is xoshiro256**, seeded through SplitMix64 as its authors
 * recommend. Distribution helpers (uniform, normal, exponential, Poisson)
 * are implemented locally so results are bit-identical everywhere.
 */

#ifndef AGSIM_COMMON_RNG_H
#define AGSIM_COMMON_RNG_H

#include <array>
#include <cstdint>

namespace agsim {

/**
 * Deterministic random number generator (xoshiro256**).
 *
 * Every stochastic model component owns its own Rng instance, seeded from
 * the experiment seed plus a component-specific stream id, so adding a new
 * consumer never perturbs the draws seen by existing ones.
 */
class Rng
{
  public:
    /**
     * Construct a generator.
     *
     * @param seed Experiment-level seed.
     * @param stream Component-specific stream id; different streams yield
     *               statistically independent sequences.
     */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull, uint64_t stream = 0);

    /** Next raw 64-bit draw. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [lo, hi] (inclusive). */
    int uniformInt(int lo, int hi);

    /** Standard normal draw (Box-Muller with caching). */
    double normal();

    /** Normal draw with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Exponential draw with the given rate (mean 1/rate). */
    double exponential(double rate);

    /**
     * Poisson draw with the given mean.
     *
     * Uses Knuth's method for small means and a normal approximation for
     * large ones (mean > 64), which is ample for droop-event counting.
     */
    int poisson(double mean);

    /** Bernoulli draw with success probability p. */
    bool bernoulli(double p);

    /** Re-seed in place (resets the cached normal draw too). */
    void reseed(uint64_t seed, uint64_t stream = 0);

    /**
     * Same position in the same stream: equal generators draw equal
     * sequences, including a pending cached normal. The generator is a
     * plain value, so copying one is its checkpoint.
     */
    bool operator==(const Rng &other) const = default;

  private:
    std::array<uint64_t, 4> state_;
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace agsim

#endif // AGSIM_COMMON_RNG_H
