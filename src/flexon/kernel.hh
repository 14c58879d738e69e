/**
 * @file
 * Per-population, feature-specialized batch kernels over
 * structure-of-arrays Flexon state.
 *
 * A Flexon population shares one FlexonConfig (Section III: the
 * feature composition is a property of the population, not of the
 * neuron), yet the scalar path re-decides that composition per neuron
 * per step through ~15 FeatureSet::has() branches and drags a private
 * FlexonConfig copy through the cache for every neuron. This layer
 * hoists the model choice out of the inner loop: the state variables
 * v/y/g/w/r/cnt live in contiguous per-population arrays, and the
 * step kernel is instantiated from a compile-time feature mask —
 * dispatched once per population at build time — so the specialized
 * loop body contains only the datapaths the population actually
 * enables. A generic kernel (same source body, runtime feature
 * queries) covers feature combinations outside the dispatch table.
 *
 * Each kernel also exists at the AVX2 and AVX-512 levels, which step
 * 4 or 8 neurons per vector, one per lane (the host's counterpart of
 * the Flexon array's lock-stepped datapaths); the widest level the
 * CPU has is chosen once per population.
 *
 * Bit-exactness contract: every kernel performs the exact Fix
 * operation order of FlexonNeuron::step (the Table V microcode
 * order), so specialized, generic, and scalar paths produce identical
 * spikes, membrane trajectories, and preResetV at any thread count
 * and at every level.
 * The double->Fix input scaling of the hardware backends is fused
 * into the kernel (the Table V convention: weights pre-scaled by
 * epsilon_m, CUB merging all synapse types into one signed input),
 * eliminating the dense per-step staging buffer.
 */

#ifndef FLEXON_FLEXON_KERNEL_HH
#define FLEXON_FLEXON_KERNEL_HH

#include <cstdint>
#include <vector>

#include "features/kernel_level.hh"
#include "flexon/config.hh"

namespace flexon {

/**
 * Structure-of-arrays dynamic state of one Flexon population.
 *
 * y and g are type-major [synapseType][neuron] over `numTypes` = the
 * population's active synapse-type count (not maxSynapseTypes): type
 * t of neuron i sits at t * count + i, so a COBE population with one
 * type streams 1/4 of the AoS footprint and the vector kernels load
 * one type of consecutive neurons contiguously.
 */
struct PopulationSoA
{
    size_t count = 0;
    size_t numTypes = 1;
    std::vector<Fix> v;
    std::vector<Fix> w;
    std::vector<Fix> r;
    std::vector<Fix> preResetV;
    std::vector<Fix> y; ///< count * numTypes, COBA only
    std::vector<Fix> g; ///< count * numTypes, COBE/COBA/CUB scratch
    std::vector<uint32_t> cnt;

    /** Size the arrays for `count` neurons at rest. */
    void resize(size_t count, size_t numSynapseTypes);

    /** Return every neuron to the resting state. */
    void reset();
};

/** One kernel invocation: a population slice and its data streams. */
struct KernelArgs
{
    const FlexonConfig *config; ///< the population's shared config
    PopulationSoA *soa;
    /**
     * Reference-unit double input, row-major stride maxSynapseTypes,
     * already offset to the population base.
     */
    const double *refInput = nullptr;
    /** Fired flags, offset to the population base. */
    uint8_t *fired = nullptr;
};

/** Steps population-local neurons [begin, end). */
using StepKernelFn = void (*)(const KernelArgs &args, size_t begin,
                              size_t end);

/** One population's step kernel. */
using SelectedKernel = KernelChoice<StepKernelFn>;

/**
 * Pick the step kernel for a feature set, once per population: a
 * compile-time specialized instantiation when the mask is in the
 * dispatch table (the Table III model combinations and their
 * single-feature building blocks), else the generic runtime-dispatch
 * kernel, each at the best level the CPU has. All are bit-identical.
 */
SelectedKernel selectStepKernel(FeatureSet features);

/**
 * Read-only view of one neuron inside a PopulationSoA, materializing
 * the AoS FlexonState probes and tests expect (y/g padded with zeros
 * to maxSynapseTypes).
 */
class FlexonNeuronView
{
  public:
    FlexonNeuronView(const FlexonConfig &config,
                     const PopulationSoA &soa, size_t idx)
        : config_(&config), soa_(&soa), idx_(idx)
    {
    }

    FlexonState state() const;
    Fix preResetV() const { return soa_->preResetV[idx_]; }
    const FlexonConfig &config() const { return *config_; }

  private:
    const FlexonConfig *config_;
    const PopulationSoA *soa_;
    size_t idx_;
};

} // namespace flexon

#endif // FLEXON_FLEXON_KERNEL_HH
