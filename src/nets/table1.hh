/**
 * @file
 * Generators for the ten SNN benchmarks of Table I, collected from
 * prior neuroscience publications. Each generator reproduces the
 * published structure — neuron count, synapse count, neuron model and
 * differential-equation solver — as a synthetic network with an
 * excitatory/inhibitory split and Poisson background stimulus.
 *
 * A scale factor shrinks the network for laptop-sized runs (neuron
 * count divides by `scale`; connection probability is preserved, so
 * synapses shrink by roughly scale^2). scale = 1 reproduces the
 * paper-size networks; the spec wirings (nets/wiring.hh) also grow
 * past them with scale < 1.
 *
 * The model demo (buildModelDemo) wraps any registered neuron model
 * in the same excitatory/inhibitory body.
 */

#ifndef FLEXON_NETS_TABLE1_HH
#define FLEXON_NETS_TABLE1_HH

#include <string>
#include <vector>

#include "features/model_table.hh"
#include "nets/wiring.hh"
#include "snn/network.hh"
#include "snn/stimulus.hh"
#include "solvers/solver.hh"

namespace flexon {

/** Static description of one Table I benchmark. */
struct BenchmarkSpec
{
    std::string name;       ///< Table I row name
    size_t neurons;         ///< published neuron count
    size_t synapses;        ///< published synapse count
    /**
     * Neuron model (Table I column 3) as a ModelRegistry name. The
     * ten rows all reference builtin Table III models, but the field
     * is a registry key so file-registered models can reuse the
     * builders.
     */
    std::string model;
    SolverKind solver;      ///< Euler or RKF45 (Table I notes)
    bool gpuNative;         ///< collected from GeNN (GPU) per Table I
    /**
     * Total recurrent excitatory gain: the sum of a neuron's
     * incoming excitatory weights. Per-synapse weights are derived
     * as gain / fan-in, which keeps the network dynamics roughly
     * invariant under scaling.
     */
    double excGain;
    /** Total recurrent inhibitory gain (negative). */
    double inhGain;
    /** Poisson background probability per neuron per step. */
    double stimulusRate;
    /** Background stimulus weight per kick (conductance units). */
    double stimulusWeight;
};

/** The ten Table I benchmarks, in the paper's order. */
const std::vector<BenchmarkSpec> &table1Benchmarks();

/** Look up a benchmark by its Table I name; fatal() if unknown. */
const BenchmarkSpec &findBenchmark(const std::string &name);

/**
 * The neuron parameterization a benchmark uses: the model's defaults
 * plus per-benchmark overrides (the Destexhe SNNs model three
 * receptor types — AMPA, GABA_A, GABA_B — and the Up-Down variant
 * strengthens adaptation). Shared by the network builder and the
 * hardware timing models.
 */
NeuronParams benchmarkParams(const BenchmarkSpec &spec);

/** A generated benchmark instance. */
struct BenchmarkInstance
{
    Network network;
    StimulusGenerator stimulus;
    BenchmarkSpec spec;
    double scale;
};

/**
 * Build a scaled instance of a benchmark: the published density,
 * parameters (benchmarkParams) and gains over
 * max(10, round(neurons / scale)) neurons.
 *
 * @param scale divide the neuron count by this factor: >= 1 for
 *        Wiring::Staged, which draws every neuron pair, and > 0 for
 *        the spec wirings, which also grow past the paper's size
 * @param seed wiring and stimulus seed (deterministic)
 */
BenchmarkInstance buildBenchmark(const BenchmarkSpec &spec,
                                 double scale, uint64_t seed,
                                 Wiring wiring = Wiring::Staged);

struct ModelDescriptor;

/**
 * Build a demo instance for a registered model — builtin or loaded
 * from a --model-file — so it can be simulated end to end without
 * writing a generator (`flexon_sim --model NAME`): the Table I body,
 * staged, over max(10, neurons) cells with 5% random connectivity,
 * the Vogels rows' gains and a suprathreshold Poisson background.
 * Its synthesized spec is named "model:<name>", so the whole
 * benchmark tool chain (sessions, probes, checkpoints) applies
 * unchanged.
 */
BenchmarkInstance buildModelDemo(const ModelDescriptor &desc,
                                 size_t neurons, uint64_t seed);

} // namespace flexon

#endif // FLEXON_NETS_TABLE1_HH
