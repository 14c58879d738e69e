#include "nets/table1.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "registry/registry.hh"

namespace flexon {

const std::vector<BenchmarkSpec> &
table1Benchmarks()
{
    // Gains are tuned for sustained, inhibition-stabilized activity
    // (the absolute refractory periods cap the rate at 0.05
    // spikes/neuron/step); the Poisson background delivers
    // suprathreshold conductance kicks that keep the network out of
    // the silent state at any scale.
    static const std::vector<BenchmarkSpec> specs = {
        {"Brette", 2400, 2400000, "DLIF", SolverKind::RKF45,
         false, 5.0, -20.0, 0.010, 2.0},
        {"Brunel", 5000, 2500000, "IF_psc_alpha",
         SolverKind::Euler, false, 5.0, -20.0, 0.010, 2.0},
        {"Destexhe-LTS", 500, 20000, "AdEx",
         SolverKind::RKF45, false, 3.0, -18.0, 0.008, 1.5},
        {"Destexhe-UpDown", 2500, 100000, "AdEx",
         SolverKind::RKF45, false, 3.0, -18.0, 0.008, 1.5},
        {"Izhikevich", 10000, 10000000, "Izhikevich",
         SolverKind::Euler, true, 5.0, -20.0, 0.010, 2.0},
        {"Muller", 1728, 762000, "IF_cond_exp_gsfa_grr",
         SolverKind::RKF45, false, 5.0, -20.0, 0.012, 2.5},
        {"Nowotny", 1220, 202000, "Izhikevich",
         SolverKind::Euler, true, 5.0, -20.0, 0.010, 2.0},
        {"Potjans-Diesmann", 8000, 3000000, "DSRM0",
         SolverKind::Euler, false, 4.0, -16.0, 0.012, 2.5},
        {"Vogels", 10000, 1920000, "DLIF", SolverKind::RKF45,
         false, 5.0, -20.0, 0.010, 2.0},
        {"Vogels-Abbott", 4000, 320000, "DLIF",
         SolverKind::RKF45, false, 5.0, -20.0, 0.010, 2.0},
    };
    return specs;
}

const BenchmarkSpec &
findBenchmark(const std::string &name)
{
    for (const BenchmarkSpec &spec : table1Benchmarks())
        if (spec.name == name)
            return spec;
    fatal("unknown Table I benchmark '%s'", name.c_str());
}

NeuronParams
benchmarkParams(const BenchmarkSpec &spec)
{
    const ModelDescriptor *desc =
        ModelRegistry::instance().find(spec.model);
    if (desc == nullptr)
        fatal("benchmark '%s' references unregistered model '%s'",
              spec.name.c_str(), spec.model.c_str());
    NeuronParams params = desc->params;
    if (spec.name == "Destexhe-LTS" ||
        spec.name == "Destexhe-UpDown") {
        // Destexhe's thalamocortical AdEx networks distinguish AMPA,
        // GABA_A and GABA_B receptors: a third synapse type with a
        // slow inhibitory conductance.
        params.numSynapseTypes = 3;
        params.syn[2] = {0.005, -1.2}; // GABA_B: tau = 20 ms
    }
    if (spec.name == "Destexhe-UpDown") {
        // The Table I "variation of AdEx": stronger adaptation jump
        // and slower recovery for Up/Down state alternation.
        params.b = 0.15;
        params.epsW = 0.0005;
    }
    return params;
}

namespace {

/**
 * The excitatory/inhibitory body of the Table I networks and the
 * model demo: `neurons` cells (>= 2) split 80/20 into "<prefix>-exc"
 * and "<prefix>-inh", four random projections at `probability` with
 * gain-derived weights and delays 1..15, and a Poisson background.
 * The returned instance carries `spec` and scale 1.
 */
BenchmarkInstance
buildEiNetwork(const BenchmarkSpec &spec, const std::string &prefix,
               const NeuronParams &params, size_t neurons,
               double probability, uint64_t seed, Wiring wiring)
{
    const size_t n_exc = (neurons * 4) / 5; // standard 80/20 split
    const size_t n_inh = neurons - n_exc;

    Network net;
    const size_t exc = net.addPopulation(prefix + "-exc", params, n_exc);
    const size_t inh = net.addPopulation(prefix + "-inh", params, n_inh);

    // Derive per-synapse weights from the total gains and the scaled
    // fan-in, so the recurrent drive is scale-invariant.
    //
    // Sign convention: with REV (Equation 4) a synaptic weight is a
    // conductance increment and must be positive — the inhibitory
    // reversal voltage below rest supplies the sign. Without REV the
    // conductance enters v' directly, so inhibition needs a negative
    // weight.
    const double fanin_exc =
        std::max(1.0, probability * static_cast<double>(n_exc));
    const double fanin_inh =
        std::max(1.0, probability * static_cast<double>(n_inh));
    const double w_exc = spec.excGain / fanin_exc;
    const bool rev = params.features.has(Feature::REV);
    const double w_inh = rev ? -spec.inhGain / fanin_inh
                             : spec.inhGain / fanin_inh;

    // Excitatory projections feed synapse type 0; inhibitory type 1,
    // or type 0 in single-type models. Delays span 1..15 steps (up
    // to 1.5 ms at the 0.1 ms step).
    const uint8_t inhType = params.numSynapseTypes >= 2 ? 1 : 0;
    const PopProjection projections[] = {
        {exc, exc, probability, 0, w_exc, 1, 15, 0},
        {exc, inh, probability, 0, w_exc, 1, 15, 0},
        {inh, exc, probability, 0, w_inh, 1, 15, inhType},
        {inh, inh, probability, 0, w_inh, 1, 15, inhType},
    };
    wireNetwork(net, projections, wiring, seed);

    StimulusGenerator stim(seed ^ 0x5f5f5f5fULL);
    stim.addSource(StimulusSource::poisson(
        0, static_cast<uint32_t>(neurons), spec.stimulusRate,
        static_cast<float>(spec.stimulusWeight), 0));

    return {std::move(net), std::move(stim), spec, 1.0};
}

} // namespace

BenchmarkInstance
buildBenchmark(const BenchmarkSpec &spec, double scale, uint64_t seed,
               Wiring wiring)
{
    flexon_assert(wiring == Wiring::Staged ? scale >= 1.0 : scale > 0.0);

    const auto neurons = std::max<size_t>(
        10, static_cast<size_t>(std::llround(spec.neurons / scale)));

    // Preserve the published connection density: p such that the
    // paper-scale network has spec.synapses connections.
    const double density =
        static_cast<double>(spec.synapses) /
        (static_cast<double>(spec.neurons) *
         static_cast<double>(spec.neurons));

    BenchmarkInstance inst =
        buildEiNetwork(spec, spec.name, benchmarkParams(spec), neurons,
                       std::min(1.0, density), seed, wiring);
    inst.scale = scale;
    return inst;
}

BenchmarkInstance
buildModelDemo(const ModelDescriptor &desc, size_t neurons,
               uint64_t seed)
{
    neurons = std::max<size_t>(10, neurons);
    const double probability = 0.05;

    // Synthesize a spec so the instance plugs into everything that
    // consumes Table I benchmarks. The gains mirror the Vogels rows
    // (sustained inhibition-stabilized activity).
    BenchmarkSpec spec;
    spec.name = "model:" + desc.name;
    spec.neurons = neurons;
    spec.synapses = static_cast<size_t>(
        probability * static_cast<double>(neurons) *
        static_cast<double>(neurons));
    spec.model = desc.name;
    spec.solver = SolverKind::Euler;
    spec.gpuNative = false;
    spec.excGain = 5.0;
    spec.inhGain = -20.0;
    spec.stimulusRate = 0.010;
    spec.stimulusWeight = 2.0;

    return buildEiNetwork(spec, desc.name, desc.params, neurons,
                          probability, seed, Wiring::Staged);
}

} // namespace flexon
