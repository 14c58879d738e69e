#include "folded/array.hh"

#include <istream>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "folded/program.hh"

namespace flexon {

FoldedFlexonArray::FoldedFlexonArray(size_t width, double clockHz)
    : neurons_(width, clockHz)
{
}

size_t
FoldedFlexonArray::addPopulation(const FlexonConfig &config,
                                 size_t count)
{
    const size_t id = neurons_.addPopulation(config, count);
    const MicrocodeProgram program = buildProgram(config);
    const std::string err = program.validate(config.numSynapseTypes);
    if (!err.empty())
        fatal("invalid microcode program: %s", err.c_str());
    programLength_.push_back(program.length());
    signalsPerStep_ +=
        static_cast<uint64_t>(count) * program.length();
    return id;
}

uint64_t
FoldedFlexonArray::cyclesPerStep() const
{
    // Stage 1 is occupied program-length cycles per neuron in a lane;
    // neurons pipeline back to back and the last drains one stage-2
    // cycle.
    const auto &pops = neurons_.populations();
    uint64_t cycles = 0;
    for (size_t p = 0; p < pops.size(); ++p) {
        const uint64_t rounds = (pops[p].count + width() - 1) / width();
        cycles += rounds * programLength_[p];
    }
    return cycles + (pops.empty() ? 0 : 1);
}

void
FoldedFlexonArray::step(std::span<const double> input,
                        std::vector<uint8_t> &fired)
{
    neurons_.step(input, fired);
    // Every neuron executes its population's full program each step,
    // so the control-signal tally is a precomputed per-step constant.
    controlSignals_ += signalsPerStep_;
    cycles_ += cyclesPerStep();
}

void
FoldedFlexonArray::saveState(std::ostream &os) const
{
    os << "folded-array " << numNeurons() << ' ' << cycles_ << ' '
       << controlSignals_ << '\n';
    for (size_t n = 0; n < numNeurons(); ++n) {
        const FlexonNeuronView neuron = neurons_.neuron(n);
        const FlexonState s = neuron.state();
        os << s.v.raw();
        for (const Fix y : s.y)
            os << ' ' << y.raw();
        for (const Fix g : s.g)
            os << ' ' << g.raw();
        os << ' ' << s.w.raw() << ' ' << s.r.raw() << ' ' << s.cnt
           << ' ' << neuron.preResetV().raw() << '\n';
    }
}

void
FoldedFlexonArray::loadState(std::istream &is)
{
    std::string tag;
    size_t count = 0;
    is >> tag >> count >> cycles_ >> controlSignals_;
    if (tag != "folded-array" || !is || count != numNeurons())
        fatal("checkpoint folded-array shape mismatch (expected %zu "
              "neurons)",
              numNeurons());
    auto readFix = [&is]() {
        int64_t raw = 0;
        is >> raw;
        return Fix::fromRaw(raw);
    };
    for (size_t n = 0; n < count; ++n) {
        FlexonState s;
        s.v = readFix();
        for (Fix &y : s.y)
            y = readFix();
        for (Fix &g : s.g)
            g = readFix();
        s.w = readFix();
        s.r = readFix();
        is >> s.cnt;
        const Fix preResetV = readFix();
        // Synapse types a population does not have hold no state.
        const size_t types = neurons_.neuron(n).config().numSynapseTypes;
        for (size_t t = types; t < maxSynapseTypes; ++t) {
            if (s.y[t] != Fix::zero() || s.g[t] != Fix::zero())
                fatal("checkpoint folded-array neuron %zu has state "
                      "for synapse type %zu of %zu",
                      n, t, types);
        }
        neurons_.setNeuron(n, s, preResetV);
    }
    if (!is)
        fatal("truncated folded-array state in checkpoint");
}

} // namespace flexon
