/**
 * @file
 * A baseline Flexon digital-neuron array (Section VI-C).
 *
 * The array instantiates `width` single-cycle Flexon neurons that
 * operate in lock step; a network with more neurons than lanes is
 * time-multiplexed across cycles, with per-neuron state and constants
 * streamed from the array's SRAMs. The paper's evaluation array has 12
 * lanes (matching the baseline CPU's core count) and runs at 250 MHz.
 *
 * Functionally the array is exact: each population's state lives in
 * structure-of-arrays form (flexon/kernel.hh) and is stepped by a
 * batch kernel specialized at addPopulation() time for the
 * population's feature composition, bit-identical to stepping real
 * FlexonNeuron instances. The timing model counts ceil(N / width)
 * cycles per simulation time step, the throughput of a single-cycle
 * design.
 */

#ifndef FLEXON_FLEXON_ARRAY_HH
#define FLEXON_FLEXON_ARRAY_HH

#include <cstdint>
#include <iosfwd>
#include <span>
#include <utility>
#include <vector>

#include "common/telemetry.hh"
#include "flexon/kernel.hh"
#include "flexon/neuron.hh"

namespace flexon {

/** Identifier of a population added to an array. */
using PopulationId = size_t;

/** A time-multiplexed array of baseline Flexon neurons. */
class FlexonArray
{
  public:
    /** Default lane count and clock of the paper's evaluation array. */
    static constexpr size_t defaultWidth = 12;
    static constexpr double defaultClockHz = 250.0e6;

    explicit FlexonArray(size_t width = defaultWidth,
                         double clockHz = defaultClockHz);

    /**
     * Add `count` neurons sharing one hardware configuration. The
     * configuration is stored once for the population (not copied per
     * neuron) and its step kernel is dispatched here, once.
     * @return the population id (neurons are indexed globally in
     *         insertion order)
     */
    PopulationId addPopulation(const FlexonConfig &config, size_t count);

    size_t numNeurons() const { return numNeurons_; }
    size_t width() const { return width_; }
    double clockHz() const { return clockHz_; }

    /**
     * Simulate one SNN time step. The double->Fix scaling of the
     * synapse-calculation stage is fused into the batch kernel, so no
     * dense staging buffer exists and refractory-blocked / all-zero
     * slots skip conversion.
     *
     * @param input row-major [neuron][synapseType] reference-unit
     *              accumulated weights; stride is maxSynapseTypes
     * @param fired output spike flags (0/1 bytes), one per neuron
     */
    void step(std::span<const double> input,
              std::vector<uint8_t> &fired);

    /**
     * Host worker threads evaluating the functional neuron loop
     * (neurons are independent within a step, so threading does not
     * change results). Purely a host-simulation knob: the modelled
     * hardware timing (cyclesPerStep) is unaffected.
     */
    void setHostThreads(size_t threads)
    {
        hostThreads_ = threads == 0 ? 1 : threads;
    }
    size_t hostThreads() const { return hostThreads_; }

    /** Hardware cycles consumed so far. */
    uint64_t cycles() const { return cycles_; }

    /** Simulated wall-clock seconds consumed so far. */
    double seconds() const
    {
        return static_cast<double>(cycles_) / clockHz_;
    }

    /** Cycles one time step costs for the current occupancy. */
    uint64_t cyclesPerStep() const;

    /** Read-only view of one neuron's state (probes and tests). */
    FlexonNeuronView neuron(size_t idx) const;

    /**
     * Overwrite one neuron's state and preResetV (checkpoint
     * restore): the inverse of neuron(idx) over the population's
     * synapse types.
     */
    void setNeuron(size_t idx, const FlexonState &state, Fix preResetV);

    /** Population base index and size. */
    struct PopulationInfo
    {
        size_t base;
        size_t count;
        FlexonConfig config;
    };
    const std::vector<PopulationInfo> &populations() const
    {
        return populations_;
    }

    /** True iff population p runs a compile-time specialized kernel. */
    bool populationSpecialized(PopulationId p) const;

    void resetState();
    void resetCycles() { cycles_ = 0; }

    /**
     * Checkpoint the array's dynamic state: the cycle counter and
     * every population's SoA arrays, Fix values as raw fixed-point
     * integers (exact by construction). loadState fatal()s when the
     * recorded shape does not match this array.
     */
    void saveState(std::ostream &os) const;
    void loadState(std::istream &is);

  private:
    /** (population, index within it) of global neuron idx. */
    std::pair<size_t, size_t> locate(size_t idx) const;

    /** Dispatch-mix sampling for one population slice (detail only,
     *  called before the kernel: the kernel mutates cnt). */
    void notePopulationSlice(size_t p, const double *input, size_t lo,
                             size_t hi) const;

    size_t width_;
    double clockHz_;
    size_t hostThreads_ = 1;
    size_t numNeurons_ = 0;
    std::vector<PopulationInfo> populations_;
    std::vector<PopulationSoA> state_;
    std::vector<SelectedKernel> kernels_;
    uint64_t cycles_ = 0;

    /**
     * Per-population handles into Registry::global(), keyed by the
     * population's feature mask (the process-wide kernel dispatch
     * mix). Sampled only while telemetry::detailEnabled().
     */
    struct PopulationTelemetry
    {
        telemetry::Counter *calls;
        telemetry::Counter *neurons;
        telemetry::Counter *blocked;
        telemetry::Counter *zeroInput;
    };
    std::vector<PopulationTelemetry> popTelemetry_;
};

} // namespace flexon

#endif // FLEXON_FLEXON_ARRAY_HH
