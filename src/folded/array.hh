/**
 * @file
 * A spatially folded Flexon array (Section VI-C): 72 folded lanes at
 * 500 MHz in the paper's evaluation configuration.
 *
 * Each lane is a two-stage pipelined folded Flexon; neurons are
 * time-multiplexed across lanes. For a population whose program has L
 * control signals, a lane spends L cycles of stage-1 occupancy per
 * neuron, and the final neuron drains one extra stage-2 cycle, so one
 * simulation time step costs sum over populations of
 * ceil(count / width) * L, plus 1.
 *
 * The folded datapath computes exactly what the baseline Flexon
 * computes, only on a different schedule (Section V). So the array's
 * neuron state is a FlexonArray, stepped by the shared per-population
 * batch kernels (flexon/kernel.hh); the microcode only sets the
 * timing model. FoldedFlexonNeuron executes the microcode; it is the
 * oracle the kernels are tested against.
 */

#ifndef FLEXON_FOLDED_ARRAY_HH
#define FLEXON_FOLDED_ARRAY_HH

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "flexon/array.hh"

namespace flexon {

/** A time-multiplexed array of spatially folded Flexon neurons. */
class FoldedFlexonArray
{
  public:
    /** The paper's evaluation configuration. */
    static constexpr size_t defaultWidth = 72;
    static constexpr double defaultClockHz = 500.0e6;

    explicit FoldedFlexonArray(size_t width = defaultWidth,
                               double clockHz = defaultClockHz);

    /**
     * Add `count` neurons sharing one configuration; its microcode is
     * built and validated once, for the population's program length.
     */
    size_t addPopulation(const FlexonConfig &config, size_t count);

    size_t numNeurons() const { return neurons_.numNeurons(); }
    size_t width() const { return neurons_.width(); }
    double clockHz() const { return neurons_.clockHz(); }

    /** Simulate one SNN time step (same contract as FlexonArray). */
    void step(std::span<const double> input,
              std::vector<uint8_t> &fired);

    /**
     * Host worker threads for the functional neuron loop; the
     * modelled hardware timing (cyclesPerStep) is unaffected.
     */
    void setHostThreads(size_t threads)
    {
        neurons_.setHostThreads(threads);
    }
    size_t hostThreads() const { return neurons_.hostThreads(); }

    uint64_t cycles() const { return cycles_; }
    double seconds() const
    {
        return static_cast<double>(cycles_) / clockHz();
    }

    /** Cycles one time step costs for the current occupancy. */
    uint64_t cyclesPerStep() const;

    /** Total control signals executed so far (for energy modelling). */
    uint64_t controlSignals() const { return controlSignals_; }

    /** Read-only view of one neuron's state (probes and tests). */
    FlexonNeuronView neuron(size_t idx) const
    {
        return neurons_.neuron(idx);
    }

    void resetState() { neurons_.resetState(); }
    void resetCycles() { cycles_ = 0; controlSignals_ = 0; }

    /**
     * Checkpoint the array's dynamic state: cycle / control-signal
     * counters and, one line per neuron, its FlexonState and
     * preResetV, Fix values as raw fixed-point integers (exact by
     * construction). loadState fatal()s when the recorded neuron
     * count does not match, or a neuron holds state for a synapse
     * type its population does not have.
     */
    void saveState(std::ostream &os) const;
    void loadState(std::istream &is);

  private:
    /**
     * Neuron state and populations; also holds this array's width
     * and clock. Its own single-cycle cycle count goes unused.
     */
    FlexonArray neurons_;
    /** Control signals of each population's program. */
    std::vector<size_t> programLength_;
    uint64_t cycles_ = 0;
    uint64_t controlSignals_ = 0;
    /** Sum over populations of count * programLength. */
    uint64_t signalsPerStep_ = 0;
};

} // namespace flexon

#endif // FLEXON_FOLDED_ARRAY_HH
