#include "common/random.hh"

#include <cmath>

#include "common/logging.hh"

namespace flexon {

namespace {

/** splitmix64 step, used for seeding and splitting. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
    // xoshiro must not be seeded with all zeros; splitmix64 of any seed
    // cannot produce four zero outputs, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

double
Rng::uniform()
{
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    flexon_assert(n > 0);
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = max() - max() % n;
    uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % n;
}

double
Rng::normal()
{
    if (hasCachedNormal_) {
        hasCachedNormal_ = false;
        return cachedNormal_;
    }
    double u1, u2;
    do {
        u1 = uniform();
    } while (u1 <= 0.0);
    u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cachedNormal_ = r * std::sin(theta);
    hasCachedNormal_ = true;
    return r * std::cos(theta);
}

double
Rng::normal(double mean, double stddev)
{
    return mean + stddev * normal();
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

uint64_t
Rng::bernoulliThreshold(double p)
{
    flexon_assert(p >= 0.0 && p <= 1.0);
    return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
}

double
Rng::exponential(double rate)
{
    flexon_assert(rate > 0.0);
    double u;
    do {
        u = uniform();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

uint64_t
Rng::poisson(double mean)
{
    flexon_assert(mean >= 0.0);
    if (mean == 0.0)
        return 0;
    if (mean < 30.0) {
        // Knuth's product-of-uniforms method.
        const double limit = std::exp(-mean);
        uint64_t k = 0;
        double p = 1.0;
        do {
            ++k;
            p *= uniform();
        } while (p > limit);
        return k - 1;
    }
    // Normal approximation for large means (adequate for stimulus use).
    const double v = normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<uint64_t>(v + 0.5);
}

Rng
Rng::split()
{
    uint64_t child_seed = next() ^ 0xd1b54a32d192ed03ULL;
    return Rng(child_seed);
}

RngState
Rng::state() const
{
    RngState st;
    for (size_t i = 0; i < st.s.size(); ++i)
        st.s[i] = s_[i];
    st.cachedNormal = cachedNormal_;
    st.hasCachedNormal = hasCachedNormal_;
    return st;
}

void
Rng::setState(const RngState &state)
{
    if ((state.s[0] | state.s[1] | state.s[2] | state.s[3]) == 0)
        fatal("Rng::setState: all-zero xoshiro state is invalid");
    for (size_t i = 0; i < state.s.size(); ++i)
        s_[i] = state.s[i];
    cachedNormal_ = state.cachedNormal;
    hasCachedNormal_ = state.hasCachedNormal;
}

} // namespace flexon
