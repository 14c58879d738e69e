/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * All stochastic components of the simulator (stimulus generation,
 * network wiring, synthetic spike trains) draw from Rng so that a run is
 * exactly reproducible given a seed. The generator is xoshiro256**,
 * which is fast, has a 256-bit state, and passes BigCrush.
 */

#ifndef FLEXON_COMMON_RANDOM_HH
#define FLEXON_COMMON_RANDOM_HH

#include <array>
#include <cstdint>

namespace flexon {

/**
 * The complete stream state of an Rng: the xoshiro256** words plus
 * the Box-Muller pair cache (normal() hands out variates in pairs, so
 * the cached second half is part of the stream — dropping it would
 * desynchronize a restored stream by one normal draw).
 */
struct RngState
{
    std::array<uint64_t, 4> s{};
    double cachedNormal = 0.0;
    bool hasCachedNormal = false;
};

/**
 * A seedable, splittable pseudo-random number generator.
 *
 * Satisfies the UniformRandomBitGenerator requirements so it can also be
 * used with <random> distributions when needed.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed via splitmix64 state expansion. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~0ULL; }

    /** Next raw 64-bit value. */
    uint64_t operator()() { return next(); }

    /**
     * Next raw 64-bit value. Inline, so a loop of draws (the Poisson
     * stimulus makes one per neuron per step) keeps the state in
     * registers instead of making a call per draw.
     */
    uint64_t next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n). @pre n > 0 */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal variate (Box-Muller, cached pair). */
    double normal();

    /** Normal variate with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /** Bernoulli trial with probability p of returning true. */
    bool bernoulli(double p);

    /**
     * The integer form of bernoulli(p): for p in [0, 1] and every
     * draw x, `(x >> 11) < bernoulliThreshold(p)` exactly when
     * bernoulli(p) is true for that draw. It returns ceil(p * 2^53).
     *
     * bernoulli(p) tests uniform() = k * 2^-53 < p with k = x >> 11.
     * Scaling by 2^53 is exact, so that holds exactly when
     * k < p * 2^53; since k is an integer, exactly when
     * k < ceil(p * 2^53). p = 1 gives 2^53, which every k is below,
     * as every uniform() is below 1.0.
     */
    static uint64_t bernoulliThreshold(double p);

    /**
     * One Bernoulli trial in integer form: draws once and returns
     * `(x >> 11) < threshold`, which for threshold =
     * bernoulliThreshold(p) is exactly bernoulli(p). Inline, like
     * next(), for loops that test one probability many times.
     */
    bool below(uint64_t threshold) { return (next() >> 11) < threshold; }

    /** Exponential variate with the given rate (lambda). */
    double exponential(double rate);

    /** Poisson variate with the given mean (Knuth for small means). */
    uint64_t poisson(double mean);

    /**
     * Derive an independent child generator. Used to give each neuron
     * population / stimulus source its own stream.
     */
    Rng split();

    /**
     * Capture / restore the exact stream state: a generator restored
     * from state() continues the identical variate sequence across
     * every distribution, including in-flight Box-Muller pairs.
     */
    RngState state() const;
    void setState(const RngState &state);

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
    double cachedNormal_ = 0.0;
    bool hasCachedNormal_ = false;
};

} // namespace flexon

#endif // FLEXON_COMMON_RANDOM_HH
