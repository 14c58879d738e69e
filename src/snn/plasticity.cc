#include "snn/plasticity.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/text_number.hh"
#include "snn/backend.hh"

namespace flexon {

IntrinsicExcitabilityRule::IntrinsicExcitabilityRule(
    NeuronBackend &backend, size_t numNeurons,
    const IePlasticityConfig &config)
    : backend_(backend), config_(config),
      alpha_(1.0 / config.tau), rates_(numNeurons, 0.0),
      offsets_(numNeurons, 0.0)
{
    const std::string err = config_.validate();
    if (!err.empty())
        fatal("invalid IE configuration: %s", err.c_str());
    // Fail loudly at construction, not silently per step: probe the
    // backend's threshold support with the neutral offset.
    if (numNeurons > 0 && !backend_.setThresholdOffset(0, 0.0)) {
        fatal("backend '%s' does not support per-neuron threshold "
              "offsets; intrinsic excitability needs the discrete "
              "reference backend",
              backend_.name());
    }
}

void
IntrinsicExcitabilityRule::onStep(const std::vector<uint8_t> &fired)
{
    flexon_assert(fired.size() == rates_.size());
    const double eta = config_.eta;
    const double target = config_.targetRate;
    const double lo = config_.minOffset;
    const double hi = config_.maxOffset;
    for (size_t n = 0; n < rates_.size(); ++n) {
        rates_[n] += (static_cast<double>(fired[n]) - rates_[n]) *
                     alpha_;
        const double next = std::clamp(
            offsets_[n] + eta * (rates_[n] - target), lo, hi);
        if (next != offsets_[n]) {
            offsets_[n] = next;
            backend_.setThresholdOffset(n, next);
        }
    }
}

double
IntrinsicExcitabilityRule::meanOffset() const
{
    if (offsets_.empty())
        return 0.0;
    double sum = 0.0;
    for (const double o : offsets_)
        sum += o;
    return sum / static_cast<double>(offsets_.size());
}

void
IntrinsicExcitabilityRule::saveState(std::ostream &os) const
{
    os << "ie " << rates_.size();
    for (const double r : rates_)
        os << ' ' << r;
    for (const double o : offsets_)
        os << ' ' << o;
    os << '\n';
}

void
IntrinsicExcitabilityRule::loadState(std::istream &is)
{
    std::string tag;
    size_t count = 0;
    is >> tag >> count;
    if (tag != "ie" || !is || count != rates_.size()) {
        fatal("checkpoint IE state does not match this rule "
              "(%zu neurons)",
              rates_.size());
    }
    for (double &r : rates_)
        readDouble(is, r);
    for (double &o : offsets_)
        readDouble(is, o);
    if (!is)
        fatal("truncated IE state in checkpoint");
    // The offsets live in the backend, which restored to whatever the
    // engine block recorded — parameters are not engine state, so
    // re-apply them here (the rule owns their persistence).
    for (size_t n = 0; n < offsets_.size(); ++n)
        backend_.setThresholdOffset(n, offsets_[n]);
}

} // namespace flexon
