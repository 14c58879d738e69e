/**
 * @file
 * The Potjans–Diesmann cortical microcircuit as a scalable LLIF
 * scenario (Potjans & Diesmann 2014, "The cell-type specific
 * cortical microcircuit").
 *
 * The model is the standard full-density cortical column: eight
 * populations (excitatory and inhibitory pairs for layers 2/3, 4, 5
 * and 6, ~77k neurons and ~0.3G synapses at full scale), wired with
 * the published layer-to-layer connection probabilities as fixed
 * in-degrees, layer-specific external Poisson drive, and distance-
 * distributed delays (excitatory ~1.5 ms, inhibitory ~0.75 ms at the
 * 0.1 ms step).
 *
 * Unlike the synthetic Table I instance of the same name
 * (nets/table1.hh), this generator reproduces the population
 * *structure* — the anisotropic in-degree matrix is exactly what
 * makes spike delivery activity-sparse and shard-skippable — and
 * uses the LLIF neuron ({LID, CUB, AR}). It is the driving scenario for the sparse-delivery work: at the model's
 * few-Hz rates most (target-shard x delay-bucket) streams are empty
 * on any given step.
 *
 * Scaling divides every population and every in-degree by `scale`;
 * per-synapse weights are derived from fixed per-neuron gains
 * divided by the scaled in-degree, so the recurrent drive (and thus
 * the firing regime) is approximately scale-invariant. `rateScale`
 * multiplies the external drive only — the knob the experiments use
 * to move the network between firing-rate regimes.
 */

#ifndef FLEXON_NETS_POTJANS_DIESMANN_HH
#define FLEXON_NETS_POTJANS_DIESMANN_HH

#include <array>
#include <cstdint>
#include <string>

#include "nets/wiring.hh"
#include "snn/network.hh"
#include "snn/stimulus.hh"

namespace flexon {

/** Number of microcircuit populations (4 layers x E/I). */
constexpr size_t microcircuitPopulations = 8;

/** Population names, in model order (L2/3E ... L6I). */
const std::array<std::string, microcircuitPopulations> &
microcircuitPopulationNames();

/** Full-scale population sizes (77169 neurons total). */
const std::array<size_t, microcircuitPopulations> &
microcircuitFullSizes();

/** Tunables of a microcircuit instance. */
struct MicrocircuitOptions
{
    /** Divide populations and in-degrees by this factor (>= 1). */
    double scale = 20.0;
    /** Wiring and stimulus seed (deterministic). */
    uint64_t seed = 1;
    /**
     * Multiplies the external Poisson drive (> 0); 1.0 is the model's
     * background regime (a few Hz), larger values push the network
     * into higher-rate regimes.
     */
    double rateScale = 1.0;
    /**
     * Summed recurrent excitatory weight onto one neuron
     * (normalized threshold units); per-synapse weights divide it
     * by the scaled excitatory in-degree. Large values make the
     * downscaled column fluctuation-driven and bursty; small values
     * with compensating external drive (extGain) give the model's
     * asynchronous-irregular regime.
     */
    double gain = 4.0;
    /** Relative inhibitory synapse strength (the model's -4). */
    double inhibition = -4.0;
    /**
     * External kick weight relative to the recurrent excitatory
     * weight.
     */
    double extGain = 0.5;
};

/** A generated microcircuit. */
struct MicrocircuitInstance
{
    Network network;
    StimulusGenerator stimulus;
    /** Scaled population sizes, model order. */
    std::array<size_t, microcircuitPopulations> popSizes;
    /** Scaled in-degrees: inDegrees[target][source]. */
    std::array<std::array<size_t, microcircuitPopulations>,
               microcircuitPopulations>
        inDegrees;
    MicrocircuitOptions options;
};

/**
 * The scaled in-degree matrix ([target][source]) the generator
 * wires, derived from the published connection-probability map
 * (exposed separately so tests can assert the wiring against it).
 */
std::array<std::array<size_t, microcircuitPopulations>,
           microcircuitPopulations>
microcircuitInDegrees(double scale);

/**
 * Build a microcircuit instance (options.scale >= 1, rateScale > 0).
 * The staged wiring draws fixed in-degrees target-major from one
 * stream; the spec wirings draw the fixed out-degree form of the
 * same projections (nets/wiring.hh), so their in-degrees are
 * binomial around the matrix.
 */
MicrocircuitInstance
buildMicrocircuit(const MicrocircuitOptions &options = {},
                  Wiring wiring = Wiring::Staged);

} // namespace flexon

#endif // FLEXON_NETS_POTJANS_DIESMANN_HH
