#include "snn/stdp.hh"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/text_number.hh"

namespace flexon {

StdpEngine::StdpEngine(Network &network, const StdpConfig &config)
    : network_(network), config_(config)
{
    if (!network_.finalized())
        fatal("STDP requires a finalized network");
    flexon_assert(config_.tauPlus > 0.0);
    flexon_assert(config_.tauMinus > 0.0);
    flexon_assert(config_.wMin <= config_.wMax);

    decayPlus_ = std::exp(-1.0 / config_.tauPlus);
    decayMinus_ = std::exp(-1.0 / config_.tauMinus);

    preTrace_.assign(network_.numNeurons(), 0.0);
    postTrace_.assign(network_.numNeurons(), 0.0);

    // Forward and reverse adjacency over the plastic synapses only.
    // Rows come from rowFor() so procedural networks (which store no
    // CSR) index the same synapses; the adjacency itself is
    // O(plastic synapses), which STDP needs regardless of how the
    // fixed wiring is represented.
    plasticOut_.resize(network_.numNeurons());
    incoming_.resize(network_.numNeurons());
    std::vector<Synapse> scratch;
    for (uint32_t src = 0; src < network_.numNeurons(); ++src) {
        const uint64_t base = network_.rowStart(src);
        const auto out = network_.rowFor(src, scratch);
        for (size_t i = 0; i < out.size(); ++i) {
            if (out[i].type != config_.plasticType)
                continue;
            plasticOut_[src].push_back(
                {out[i].target, base + i, out[i].weight});
            incoming_[out[i].target].push_back(
                {src, base + i, out[i].weight});
            ++plasticCount_;
        }
    }
}

float
StdpEngine::currentWeight(const PlasticRef &ref) const
{
    if (network_.procedural()) {
        float w = 0.0f;
        return network_.overlayWeight(ref.index, w) ? w : ref.base;
    }
    return network_.synapseAt(ref.index).weight;
}

void
StdpEngine::onStep(const std::vector<uint8_t> &fired)
{
    flexon_assert(fired.size() == network_.numNeurons());

    auto clamp = [&](float w) {
        return std::clamp(w, config_.wMin, config_.wMax);
    };

    // Trace decay for every neuron, every step.
    for (uint32_t n = 0; n < network_.numNeurons(); ++n) {
        preTrace_[n] *= decayPlus_;
        postTrace_[n] *= decayMinus_;
    }

    // LTD: a pre spike arriving after recent post activity weakens
    // the synapse. Applied before the trace bumps so exact
    // coincidences are not double counted.
    for (uint32_t n = 0; n < network_.numNeurons(); ++n) {
        if (!fired[n])
            continue;
        for (const PlasticRef &ref : plasticOut_[n]) {
            network_.setSynapseWeight(
                ref.index,
                clamp(static_cast<float>(
                    currentWeight(ref) -
                    config_.aMinus * postTrace_[ref.peer])));
        }
    }

    // LTP: a post spike following recent pre activity strengthens
    // the incoming synapses.
    for (uint32_t n = 0; n < network_.numNeurons(); ++n) {
        if (!fired[n])
            continue;
        for (const PlasticRef &ref : incoming_[n]) {
            network_.setSynapseWeight(
                ref.index,
                clamp(static_cast<float>(
                    currentWeight(ref) +
                    config_.aPlus * preTrace_[ref.peer])));
        }
    }

    // Trace bumps last.
    for (uint32_t n = 0; n < network_.numNeurons(); ++n) {
        if (fired[n]) {
            preTrace_[n] += 1.0;
            postTrace_[n] += 1.0;
        }
    }
}

double
StdpEngine::preTrace(uint32_t neuron) const
{
    flexon_assert(neuron < preTrace_.size());
    return preTrace_[neuron];
}

double
StdpEngine::postTrace(uint32_t neuron) const
{
    flexon_assert(neuron < postTrace_.size());
    return postTrace_[neuron];
}

double
StdpEngine::meanPlasticWeight() const
{
    if (plasticCount_ == 0)
        return 0.0;
    double sum = 0.0;
    for (uint32_t n = 0; n < network_.numNeurons(); ++n) {
        for (const PlasticRef &ref : incoming_[n])
            sum += currentWeight(ref);
    }
    return sum / static_cast<double>(plasticCount_);
}

void
StdpEngine::saveState(std::ostream &os) const
{
    os << "stdp " << preTrace_.size();
    for (const double x : preTrace_)
        os << ' ' << x;
    for (const double x : postTrace_)
        os << ' ' << x;
    os << '\n';
}

void
StdpEngine::loadState(std::istream &is)
{
    std::string tag;
    size_t count = 0;
    is >> tag >> count;
    if (tag != "stdp" || !is || count != preTrace_.size())
        fatal("checkpoint STDP state size mismatch (expected %zu "
              "neurons)",
              preTrace_.size());
    for (double &x : preTrace_)
        readDouble(is, x);
    for (double &x : postTrace_)
        readDouble(is, x);
    if (!is)
        fatal("truncated STDP state in checkpoint");
}

} // namespace flexon
