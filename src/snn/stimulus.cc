#include "snn/stimulus.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/logging.hh"

namespace flexon {

StimulusSource
StimulusSource::poisson(uint32_t base, uint32_t count,
                        double probability, float weight, uint8_t type)
{
    flexon_assert(probability >= 0.0 && probability <= 1.0);
    flexon_assert(count > 0);
    StimulusSource s;
    s.kind_ = Kind::Poisson;
    s.base_ = base;
    s.count_ = count;
    s.probability_ = probability;
    s.weight_ = weight;
    s.type_ = type;
    return s;
}

StimulusSource
StimulusSource::pattern(uint32_t base, uint32_t count, uint32_t period,
                        float weight, uint8_t type)
{
    flexon_assert(period >= 1);
    flexon_assert(count > 0);
    StimulusSource s;
    s.kind_ = Kind::Pattern;
    s.base_ = base;
    s.count_ = count;
    s.period_ = period;
    s.weight_ = weight;
    s.type_ = type;
    return s;
}

StimulusSource
StimulusSource::ou(uint32_t base, uint32_t count, double mean,
                   double sigma, double tau, uint8_t type)
{
    flexon_assert(count > 0);
    flexon_assert(tau >= 1.0);
    flexon_assert(sigma >= 0.0);
    StimulusSource s;
    s.kind_ = Kind::OrnsteinUhlenbeck;
    s.base_ = base;
    s.count_ = count;
    s.ouMean_ = mean;
    s.ouSigma_ = sigma;
    s.ouTau_ = tau;
    s.type_ = type;
    return s;
}

void
StimulusSource::generate(uint64_t t, Rng &rng,
                         std::vector<StimulusSpike> &out)
{
    if (kind_ == Kind::Poisson) {
        // rng.bernoulli(p) in its exact integer form (see
        // Rng::bernoulliThreshold): one draw per neuron, in neuron
        // order, so the stream is the same. Each block of up to 64
        // draws lands in a mask, and only its set bits are appended.
        // The threshold is not a member: a larger source shifts later
        // heap allocations (DESIGN.md §10).
        const uint64_t threshold = Rng::bernoulliThreshold(probability_);
        for (uint32_t block = 0; block < count_; block += 64) {
            const uint32_t len = std::min<uint32_t>(64, count_ - block);
            uint64_t mask = 0;
            for (uint32_t k = 0; k < len; ++k)
                mask |= uint64_t{rng.below(threshold)} << k;
            for (; mask != 0; mask &= mask - 1) {
                out.push_back({base_ + block +
                                   static_cast<uint32_t>(
                                       std::countr_zero(mask)),
                               weight_, type_});
            }
        }
    } else if (kind_ == Kind::Pattern) {
        if (t % period_ == 0) {
            for (uint32_t i = 0; i < count_; ++i)
                out.push_back({base_ + i, weight_, type_});
        }
    } else {
        if (ouState_.empty())
            ouState_.assign(count_, ouMean_);
        const double noise_gain =
            ouSigma_ * std::sqrt(2.0 / ouTau_);
        for (uint32_t i = 0; i < count_; ++i) {
            double &x = ouState_[i];
            x += (ouMean_ - x) / ouTau_ + noise_gain * rng.normal();
            x = std::max(0.0, x);
            if (x > 0.0) {
                out.push_back(
                    {base_ + i, static_cast<float>(x), type_});
            }
        }
    }
}

double
StimulusSource::expectedSpikesPerStep() const
{
    if (kind_ == Kind::Poisson)
        return probability_ * count_;
    if (kind_ == Kind::Pattern)
        return static_cast<double>(count_) / period_;
    return static_cast<double>(count_); // OU: one input per neuron
}

void
StimulusSource::saveState(std::ostream &os) const
{
    // Only the OU trajectory is dynamic; everything else is
    // configuration, reconstructed by the owner. An OU source whose
    // state is still lazily unallocated writes length 0, and loading
    // length 0 restores exactly that (the first generate() seeds it).
    os << "source " << ouState_.size();
    for (const double x : ouState_)
        os << ' ' << x;
    os << '\n';
}

void
StimulusSource::loadState(std::istream &is)
{
    std::string tag;
    size_t len = 0;
    is >> tag >> len;
    if (tag != "source" || !is)
        fatal("malformed stimulus-source state in checkpoint");
    // generate() indexes the OU state by neuron, so it is either
    // unallocated or one value per neuron; other kinds keep none.
    const size_t expected =
        kind_ == Kind::OrnsteinUhlenbeck ? count_ : 0;
    if (len != 0 && len != expected)
        fatal("checkpoint stimulus source has %zu OU values, this "
              "source keeps %zu",
              len, expected);
    ouState_.resize(len);
    for (double &x : ouState_)
        is >> x;
    if (!is)
        fatal("truncated stimulus-source state in checkpoint");
}

StimulusGenerator::StimulusGenerator(uint64_t seed) : rng_(seed)
{
}

void
StimulusGenerator::addSource(const StimulusSource &source)
{
    sources_.push_back(source);
}

const std::vector<StimulusSpike> &
StimulusGenerator::generate(uint64_t t)
{
    buffer_.clear();
    for (StimulusSource &s : sources_)
        s.generate(t, rng_, buffer_);
    return buffer_;
}

double
StimulusGenerator::expectedSpikesPerStep() const
{
    double total = 0.0;
    for (const StimulusSource &s : sources_)
        total += s.expectedSpikesPerStep();
    return total;
}

void
StimulusGenerator::saveState(std::ostream &os) const
{
    const RngState rng = rng_.state();
    os << "stimulus " << sources_.size() << '\n';
    os << "rng " << rng.s[0] << ' ' << rng.s[1] << ' ' << rng.s[2]
       << ' ' << rng.s[3] << ' ' << rng.cachedNormal << ' '
       << (rng.hasCachedNormal ? 1 : 0) << '\n';
    for (const StimulusSource &s : sources_)
        s.saveState(os);
}

void
StimulusGenerator::loadState(std::istream &is)
{
    std::string tag;
    size_t count = 0;
    is >> tag >> count;
    if (tag != "stimulus" || !is)
        fatal("malformed stimulus state in checkpoint");
    if (count != sources_.size()) {
        fatal("checkpoint has %zu stimulus sources, generator has "
              "%zu — the run configuration must match",
              count, sources_.size());
    }
    RngState rng;
    int hasCached = 0;
    is >> tag >> rng.s[0] >> rng.s[1] >> rng.s[2] >> rng.s[3] >>
        rng.cachedNormal >> hasCached;
    if (tag != "rng" || !is)
        fatal("malformed stimulus RNG state in checkpoint");
    rng.hasCachedNormal = hasCached != 0;
    rng_.setState(rng);
    for (StimulusSource &s : sources_)
        s.loadState(is);
}

} // namespace flexon
