#include "folded/neuron.hh"

#include "common/logging.hh"
#include "fixed/fast_exp.hh"

namespace flexon {

FoldedFlexonNeuron::FoldedFlexonNeuron(const FlexonConfig &config)
    : FoldedFlexonNeuron(config, buildProgram(config))
{
}

FoldedFlexonNeuron::FoldedFlexonNeuron(const FlexonConfig &config,
                                       MicrocodeProgram program)
    : config_(config), program_(std::move(program))
{
    flexon_assert(config_.features.valid());
    const std::string err =
        program_.validate(config_.numSynapseTypes);
    if (!err.empty())
        fatal("invalid microcode program: %s", err.c_str());
}

Fix
FoldedFlexonNeuron::readState(StateVar s) const
{
    switch (s) {
      case StateVar::V: return state_.v;
      case StateVar::W: return state_.w;
      case StateVar::R: return state_.r;
      case StateVar::Y0: return state_.y[0];
      case StateVar::Y1: return state_.y[1];
      case StateVar::Y2: return state_.y[2];
      case StateVar::Y3: return state_.y[3];
      case StateVar::G0: return state_.g[0];
      case StateVar::G1: return state_.g[1];
      case StateVar::G2: return state_.g[2];
      case StateVar::G3: return state_.g[3];
      default: panic("invalid state var %d", static_cast<int>(s));
    }
}

void
FoldedFlexonNeuron::writeState(StateVar s, Fix value)
{
    switch (s) {
      case StateVar::V: state_.v = value; break;
      case StateVar::W: state_.w = value; break;
      case StateVar::R: state_.r = value; break;
      case StateVar::Y0: state_.y[0] = value; break;
      case StateVar::Y1: state_.y[1] = value; break;
      case StateVar::Y2: state_.y[2] = value; break;
      case StateVar::Y3: state_.y[3] = value; break;
      case StateVar::G0: state_.g[0] = value; break;
      case StateVar::G1: state_.g[1] = value; break;
      case StateVar::G2: state_.g[2] = value; break;
      case StateVar::G3: state_.g[3] = value; break;
      default: panic("invalid state var %d", static_cast<int>(s));
    }
}

bool
FoldedFlexonNeuron::step(std::span<const Fix> input,
                         const MicroOpSink &sink)
{
    const FlexonConfig &c = config_;
    const FeatureSet &f = c.features;

    // Absolute refractory gating (Equation 7): the input bus reads
    // zero while the counter is non-zero.
    const bool blocked = f.has(Feature::AR) && state_.cnt > 0;
    if (f.has(Feature::AR) && state_.cnt > 0)
        --state_.cnt;

    const auto &mul_consts = program_.mulConstants();
    const auto &add_consts = program_.addConstants();

    // --- Pipeline stage 1: execute the control signals.
    Fix v_acc = Fix::zero();
    Fix tmp = Fix::zero();
    const std::vector<MicroOp> &ops = program_.ops();
    for (size_t i = 0; i < ops.size(); ++i) {
        const MicroOp &op = ops[i];
        const Fix mul_opnd = op.a == MulSel::Tmp
                                 ? tmp
                                 : mul_consts.at(op.ca);
        const Fix state_opnd = readState(op.s);

        Fix add_opnd;
        switch (op.b) {
          case AddSel::Zero:
            add_opnd = Fix::zero();
            break;
          case AddSel::Const:
            add_opnd = add_consts.at(op.cb);
            break;
          case AddSel::Input:
            add_opnd = (blocked || op.type >= input.size())
                           ? Fix::zero()
                           : input[op.type];
            break;
          case AddSel::Tmp:
            add_opnd = tmp;
            break;
          default:
            panic("invalid ADD select %d", static_cast<int>(op.b));
        }

        Fix out = mul_opnd * state_opnd + add_opnd;
        if (op.exp)
            out = fixedExp(out);
        tmp = out;
        if (op.sWr)
            writeState(op.s, out);
        if (op.vAcc)
            v_acc += out;
        if (sink)
            sink({i, op, mul_opnd, state_opnd, add_opnd, out, v_acc});
    }

    // The LID datapath floors v' at the resting voltage (Figure 4).
    if (f.has(Feature::LID) && v_acc < Fix::zero())
        v_acc = Fix::zero();

    // --- Pipeline stage 2: firing check and post-fire updates.
    preResetV_ = v_acc;
    const bool fired = v_acc > c.consts.threshold;
    if (fired) {
        v_acc = Fix::zero();
        if (f.has(Feature::ADT) || f.has(Feature::SBT) ||
            f.has(Feature::RR)) {
            state_.w -= c.consts.b;
        }
        if (f.has(Feature::RR))
            state_.r -= c.consts.qR;
        if (f.has(Feature::AR))
            state_.cnt = c.arSteps;
    }

    state_.v = c.truncateStorage ? truncateMembrane(v_acc) : v_acc;
    return fired;
}

} // namespace flexon
