/**
 * @file
 * Cycle-by-cycle execution tracing for spatially folded Flexon — the
 * functional-model analogue of dumping RTL waveforms. Each traced
 * cycle records the control signal, the resolved operands, and the
 * MUL-ADD(-EXP) result; the writer renders a testbench-style text
 * log for debugging microcode or cross-checking against a future
 * Verilog implementation.
 */

#ifndef FLEXON_FOLDED_TRACE_HH
#define FLEXON_FOLDED_TRACE_HH

#include <ostream>
#include <string>
#include <vector>

#include "fixed/fixed_point.hh"
#include "folded/neuron.hh"

namespace flexon {

/** One traced stage-1 cycle. */
struct TraceCycle : MicroOpRecord
{
    uint64_t step; ///< simulation time step
};

/** One traced stage-2 (firing) cycle. */
struct TraceFire
{
    uint64_t step;
    Fix preResetV;
    bool fired;
};

/**
 * Executes a folded Flexon neuron while recording every cycle, through
 * the trace sink of FoldedFlexonNeuron::step: the trace shows exactly
 * what the microcode interpreter computed.
 */
class TracedFoldedNeuron
{
  public:
    explicit TracedFoldedNeuron(const FlexonConfig &config);

    /** Step once, appending to the trace. @return fired */
    bool step(std::span<const Fix> input);

    bool
    step(Fix input)
    {
        return step(std::span<const Fix>(&input, 1));
    }

    const std::vector<TraceCycle> &cycles() const { return cycles_; }
    const std::vector<TraceFire> &fires() const { return fires_; }
    const FlexonState &state() const { return neuron_.state(); }

    /** Total stage-1 cycles executed (== cycles().size()). */
    uint64_t totalCycles() const { return cycles_.size(); }

    void clearTrace();

    /** Render the trace as a waveform-style text log. */
    void write(std::ostream &os) const;

  private:
    FoldedFlexonNeuron neuron_;
    uint64_t step_ = 0;
    std::vector<TraceCycle> cycles_;
    std::vector<TraceFire> fires_;
};

} // namespace flexon

#endif // FLEXON_FOLDED_TRACE_HH
