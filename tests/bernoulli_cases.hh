/**
 * @file
 * Shared inputs of the exactness tests for the integer Bernoulli test
 * (Rng::bernoulliThreshold and Rng::below, the Poisson stimulus draw,
 * connectRandom's pair test): the
 * probabilities to try, and an Rng state whose next draw is a chosen
 * value, so a test can put a draw exactly on a threshold.
 */

#ifndef FLEXON_TESTS_BERNOULLI_CASES_HH
#define FLEXON_TESTS_BERNOULLI_CASES_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/random.hh"

namespace flexon {

/**
 * The edge probabilities: 0, the smallest subnormal, 2^-60, 2^-53,
 * 0.01, 0.1 and both of its neighbours, 0.5, 0.95, 1 - 2^-53 and 1.
 */
inline std::vector<double>
bernoulliEdgeProbabilities()
{
    return {0.0,
            std::numeric_limits<double>::denorm_min(),
            0x1.0p-60,
            0x1.0p-53,
            0.01,
            std::nextafter(0.1, 0.0),
            0.1,
            std::nextafter(0.1, 1.0),
            0.5,
            0.95,
            1.0 - 0x1.0p-53,
            1.0};
}

/** `count` seeded probabilities in [0, 1), spread over 64 octaves. */
inline std::vector<double>
bernoulliRandomProbabilities(size_t count, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> ps(count);
    for (double &p : ps)
        p = std::ldexp(rng.uniform(),
                       -static_cast<int>(rng.uniformInt(64)));
    return ps;
}

/**
 * A valid Rng state whose next() returns exactly `x`. xoshiro256**
 * outputs rotl(s[1] * 5, 7) * 9, which is invertible in s[1]: 5 and 9
 * are odd, so they have inverses mod 2^64.
 */
inline RngState
rngStateDrawing(uint64_t x)
{
    const auto inverse = [](uint64_t a) {
        uint64_t inv = a; // right to 3 bits; each step doubles them
        for (int i = 0; i < 5; ++i)
            inv *= 2 - a * inv;
        return inv;
    };
    const uint64_t y = x * inverse(9);
    RngState st;
    st.s = {0x0123456789abcdefULL, ((y >> 7) | (y << 57)) * inverse(5),
            0xfedcba9876543210ULL, 0x0f1e2d3c4b5a6978ULL};
    return st;
}

} // namespace flexon

#endif // FLEXON_TESTS_BERNOULLI_CASES_HH
