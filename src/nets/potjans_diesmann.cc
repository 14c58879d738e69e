#include "nets/potjans_diesmann.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hh"
#include "features/model_table.hh"
#include "registry/registry.hh"

namespace flexon {

const std::array<std::string, microcircuitPopulations> &
microcircuitPopulationNames()
{
    static const std::array<std::string, microcircuitPopulations>
        names = {"L2/3E", "L2/3I", "L4E", "L4I",
                 "L5E",   "L5I",   "L6E", "L6I"};
    return names;
}

const std::array<size_t, microcircuitPopulations> &
microcircuitFullSizes()
{
    // Potjans & Diesmann 2014, Table 5 (77169 neurons).
    static const std::array<size_t, microcircuitPopulations> sizes = {
        20683, 5834, 21915, 5479, 4850, 1065, 14395, 2948};
    return sizes;
}

namespace {

/**
 * Published connection probabilities [target][source] (Table 5):
 * the probability that a given (source, target) pair is connected
 * by at least one synapse. Population order L2/3E ... L6I; even
 * indices are excitatory.
 */
constexpr double connProb[microcircuitPopulations]
                         [microcircuitPopulations] = {
    // from:  L2/3E  L2/3I  L4E    L4I    L5E    L5I     L6E    L6I
    /*L2/3E*/ {0.101, 0.169, 0.044, 0.082, 0.032, 0.0,    0.008, 0.0},
    /*L2/3I*/ {0.135, 0.137, 0.032, 0.052, 0.075, 0.0,    0.004, 0.0},
    /*L4E*/   {0.008, 0.006, 0.050, 0.135, 0.007, 0.0003, 0.045, 0.0},
    /*L4I*/   {0.069, 0.003, 0.079, 0.160, 0.003, 0.0,    0.106, 0.0},
    /*L5E*/   {0.100, 0.062, 0.051, 0.006, 0.083, 0.373,  0.020, 0.0},
    /*L5I*/   {0.055, 0.027, 0.026, 0.002, 0.060, 0.316,  0.009, 0.0},
    /*L6E*/   {0.016, 0.007, 0.021, 0.017, 0.057, 0.020,  0.040, 0.225},
    /*L6I*/   {0.036, 0.001, 0.003, 0.001, 0.028, 0.008,  0.066, 0.144},
};

/** External (thalamo-cortical + background) in-degrees, Table 5. */
constexpr size_t extInDegree[microcircuitPopulations] = {
    1600, 1500, 2100, 1900, 2000, 1900, 2900, 2100};

/** Background rate per external source: 8 Hz at the 0.1 ms step. */
constexpr double extRatePerStep = 8.0 * 1.0e-4;

/**
 * External kicks are folded kickFold-fold: the per-step Bernoulli
 * probability is mean/kickFold (capped) and the kick weight absorbs
 * the rest, preserving the mean drive while keeping the drive
 * fluctuation-driven — and the per-step stimulus touch set sparse,
 * which keeps the router's sparse slot clears cheap.
 */
constexpr double kickFold = 16.0;

/** Delay ranges in steps: ~1.5 +- 0.75 ms exc, ~0.75 +- 0.375 ms
 *  inh at dt = 0.1 ms (uniform stand-in for the truncated
 *  normal). */
constexpr uint8_t excDelayMin = 8, excDelayMax = 23;
constexpr uint8_t inhDelayMin = 4, inhDelayMax = 11;

} // namespace

std::array<std::array<size_t, microcircuitPopulations>,
           microcircuitPopulations>
microcircuitInDegrees(double scale)
{
    flexon_assert(scale >= 1.0);
    const auto &sizes = microcircuitFullSizes();
    std::array<std::array<size_t, microcircuitPopulations>,
               microcircuitPopulations>
        k{};
    for (size_t t = 0; t < microcircuitPopulations; ++t) {
        for (size_t s = 0; s < microcircuitPopulations; ++s) {
            const double c = connProb[t][s];
            if (c <= 0.0) {
                k[t][s] = 0;
                continue;
            }
            // Invert the pair-connection probability into a total
            // synapse count (synapses are drawn with replacement, so
            // C = 1 - (1 - 1/(Ns*Nt))^K), then to a per-target
            // in-degree, then scale.
            const double ns = static_cast<double>(sizes[s]);
            const double nt = static_cast<double>(sizes[t]);
            const double total =
                std::log(1.0 - c) / std::log(1.0 - 1.0 / (ns * nt));
            const double perTarget = total / nt;
            k[t][s] = static_cast<size_t>(std::max(
                1.0, std::llround(perTarget / scale) * 1.0));
        }
    }
    return k;
}

MicrocircuitInstance
buildMicrocircuit(const MicrocircuitOptions &options, Wiring wiring)
{
    flexon_assert(options.scale >= 1.0);
    flexon_assert(options.rateScale > 0.0);

    MicrocircuitInstance inst;
    inst.options = options;
    inst.inDegrees = microcircuitInDegrees(options.scale);

    const auto &names = microcircuitPopulationNames();
    const auto &full = microcircuitFullSizes();
    const NeuronParams params =
        ModelRegistry::instance().find("LLIF")->params;

    // Population p of the network is population p of the model.
    for (size_t p = 0; p < microcircuitPopulations; ++p) {
        inst.popSizes[p] = std::max<size_t>(
            2, static_cast<size_t>(
                   std::llround(full[p] / options.scale)));
        inst.network.addPopulation(names[p], params, inst.popSizes[p]);
    }

    // Per-target excitatory weight from the gain (normalized LLIF
    // units: threshold 1, leak 0.002 per step) and the excitatory
    // in-degree of matrix k.
    const auto excWeight = [&options](const auto &k, size_t t) {
        size_t excIn = 0;
        for (size_t s = 0; s < microcircuitPopulations; s += 2)
            excIn += k[t][s];
        return options.gain /
               static_cast<double>(std::max<size_t>(1, excIn));
    };

    // Recurrent weights use the scaled in-degree; inhibitory weight
    // is options.inhibition times the excitatory one. Projections
    // are listed target-major.
    std::vector<PopProjection> projections;
    for (size_t t = 0; t < microcircuitPopulations; ++t) {
        const double wExc = excWeight(inst.inDegrees, t);
        const double wInh = options.inhibition * wExc;
        for (size_t s = 0; s < microcircuitPopulations; ++s) {
            const size_t fanin = inst.inDegrees[t][s];
            if (fanin == 0)
                continue;
            const bool excSrc = s % 2 == 0;
            // The model's one irregular weight: L4E -> L2/3E
            // synapses are twice the reference strength.
            double w = excSrc ? wExc : wInh;
            if (t == 0 && s == 2)
                w *= 2.0;
            projections.push_back(
                {s, t, 0.0, fanin, w,
                 excSrc ? excDelayMin : inhDelayMin,
                 excSrc ? excDelayMax : inhDelayMax,
                 static_cast<uint8_t>(excSrc ? 0 : 1)});
        }
    }
    wireNetwork(inst.network, projections, wiring, options.seed);

    // Layer-specific external drive: kExt independent 8 Hz sources
    // per neuron, folded into one Bernoulli kick per neuron per step
    // with a mean-preserving weight (p capped below 1; the weight
    // absorbs the remainder). The kick strength uses the FULL-scale
    // excitatory weight — the external world does not shrink with
    // the column, so the absolute background drive (and with it the
    // firing regime) stays scale-invariant.
    const auto fullK = microcircuitInDegrees(1.0);
    inst.stimulus = StimulusGenerator(options.seed ^ 0x9e3779b9ULL);
    for (size_t t = 0; t < microcircuitPopulations; ++t) {
        const double wExc = excWeight(fullK, t);
        const double mean = static_cast<double>(extInDegree[t]) *
                            extRatePerStep * options.rateScale;
        const double p = std::min(0.95, mean / kickFold);
        const double weight = options.extGain * wExc * mean / p;
        const Population &pop = inst.network.population(t);
        inst.stimulus.addSource(StimulusSource::poisson(
            static_cast<uint32_t>(pop.base),
            static_cast<uint32_t>(pop.count), p,
            static_cast<float>(weight), 0));
    }
    return inst;
}

} // namespace flexon
