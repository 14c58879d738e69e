/**
 * @file
 * Spatially folded Flexon (Section V): a two-stage pipelined digital
 * neuron with one multiplier, one adder chain and one exponentiation
 * unit, driven by the Table IV control signals.
 *
 * Stage 1 executes the microcode program (one control signal per
 * cycle), updating state variables and accumulating v'. Stage 2
 * evaluates the firing condition and performs the post-fire state
 * adjustments. The model is cycle-accurate at the control-signal
 * granularity: per-neuron latency is length() + 1 cycles.
 */

#ifndef FLEXON_FOLDED_NEURON_HH
#define FLEXON_FOLDED_NEURON_HH

#include <functional>
#include <span>

#include "flexon/config.hh"
#include "folded/program.hh"

namespace flexon {

/** One executed stage-1 cycle: the control signal and its operands. */
struct MicroOpRecord
{
    size_t index;      ///< control-signal index within the step
    MicroOp op;        ///< the executed control signal
    Fix mulOperand;    ///< resolved MUL operand (constant or tmp)
    Fix stateOperand;  ///< the addressed state variable's value
    Fix addOperand;    ///< resolved ADD operand
    Fix result;        ///< out (post-EXP if op.exp)
    Fix vAccAfter;     ///< v' accumulator after this cycle
};

/** Receives one MicroOpRecord per executed control signal. */
using MicroOpSink = std::function<void(const MicroOpRecord &)>;

/** One spatially folded Flexon digital neuron. */
class FoldedFlexonNeuron
{
  public:
    /**
     * @param config the hardware configuration (constants, features)
     * @param program microcode; defaults to buildProgram(config)
     */
    explicit FoldedFlexonNeuron(const FlexonConfig &config);
    FoldedFlexonNeuron(const FlexonConfig &config,
                       MicrocodeProgram program);

    /**
     * Evaluate one simulation time step by executing the microcode.
     *
     * @param input pre-scaled accumulated weights per synapse type
     * @param sink if set, called once per control signal, in order
     * @return true iff the neuron fired an output spike
     */
    bool step(std::span<const Fix> input, const MicroOpSink &sink = {});

    /** Convenience overload for single-synapse-type configurations. */
    bool
    step(Fix input)
    {
        return step(std::span<const Fix>(&input, 1));
    }

    const FlexonState &state() const { return state_; }
    FlexonState &state() { return state_; }
    const FlexonConfig &config() const { return config_; }
    const MicrocodeProgram &program() const { return program_; }

    /** The v' value of the last step before any firing reset. */
    Fix preResetV() const { return preResetV_; }

    /** Pipeline latency of one neuron evaluation, in cycles. */
    size_t latencyCycles() const { return program_.latencyCycles(); }

    void reset() { state_.reset(); }

  private:
    Fix readState(StateVar s) const;
    void writeState(StateVar s, Fix value);

    FlexonConfig config_;
    MicrocodeProgram program_;
    FlexonState state_;
    Fix preResetV_;
};

} // namespace flexon

#endif // FLEXON_FOLDED_NEURON_HH
