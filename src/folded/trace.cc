#include "folded/trace.hh"

#include <iomanip>

namespace flexon {

TracedFoldedNeuron::TracedFoldedNeuron(const FlexonConfig &config)
    : neuron_(config)
{
}

bool
TracedFoldedNeuron::step(std::span<const Fix> input)
{
    const bool fired =
        neuron_.step(input, [this](const MicroOpRecord &record) {
            cycles_.push_back({record, step_});
        });
    fires_.push_back({step_, neuron_.preResetV(), fired});
    ++step_;
    return fired;
}

void
TracedFoldedNeuron::clearTrace()
{
    cycles_.clear();
    fires_.clear();
}

void
TracedFoldedNeuron::write(std::ostream &os) const
{
    os << "# spatially folded Flexon execution trace\n";
    os << "# features: " << neuron_.config().features.toString()
       << '\n';
    size_t fire_idx = 0;
    uint64_t current_step = ~uint64_t{0};
    for (const TraceCycle &c : cycles_) {
        if (c.step != current_step) {
            current_step = c.step;
            os << "step " << current_step << ":\n";
        }
        os << "  [" << c.index << "] "
           << (c.op.a == MulSel::Tmp ? "tmp" : "const") << '('
           << std::setprecision(6) << c.mulOperand.toDouble()
           << ") * " << stateVarName(c.op.s) << '('
           << c.stateOperand.toDouble() << ") + "
           << c.addOperand.toDouble();
        if (c.op.exp)
            os << " |exp|";
        os << " -> " << c.result.toDouble();
        if (c.op.sWr)
            os << "  wr " << stateVarName(c.op.s);
        if (c.op.vAcc)
            os << "  v'=" << c.vAccAfter.toDouble();
        if (!c.op.comment.empty())
            os << "   ; " << c.op.comment;
        os << '\n';

        const bool last_of_step =
            c.index + 1 == neuron_.program().length();
        if (last_of_step && fire_idx < fires_.size()) {
            const TraceFire &f = fires_[fire_idx++];
            os << "  fire-stage: v'=" << f.preResetV.toDouble()
               << (f.fired ? "  SPIKE\n" : "\n");
        }
    }
}

} // namespace flexon
