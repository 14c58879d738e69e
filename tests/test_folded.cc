/**
 * @file
 * Tests for spatially folded Flexon: the Table V microcode programs
 * (lengths, structure, constant-buffer limits), the two-stage timing
 * model (Section V-B), and the headline property — bit-exact
 * equivalence with the baseline Flexon across every Table III model
 * and across randomized configurations.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "features/model_table.hh"
#include "flexon/array.hh"
#include "flexon/neuron.hh"
#include "folded/array.hh"
#include "folded/neuron.hh"
#include "folded/program.hh"

namespace flexon {
namespace {

FlexonConfig
configFor(ModelKind kind)
{
    return FlexonConfig::fromParams(defaultParams(kind));
}

/** Expected control-signal counts for the Table III models (with the
 * default two synapse types where conductances apply). */
TEST(Microcode, ProgramLengthsMatchTableV)
{
    const std::vector<std::pair<ModelKind, size_t>> expected = {
        {ModelKind::LIF, 1},   // CUB + EXD fused (Table V)
        {ModelKind::SLIF, 1},
        {ModelKind::LLIF, 2},  // LID, then the input
        {ModelKind::DSRM0, 3}, // COBE x2 types + EXD
        {ModelKind::DLIF, 7},  // (COBE + 2 REV) x2 + EXD
        {ModelKind::QIF, 8},   // DLIF accumulation + 2 QDI
        {ModelKind::EIF, 9},   // DLIF accumulation + 3 EXI
        {ModelKind::Izhikevich, 9}, // + ADT + 2 QDI
        {ModelKind::AdEx, 11},      // + 2 SBT + 3 EXI
        {ModelKind::AdExCOBA, 15},  // COBA costs 3 ops per type
        {ModelKind::IFPscAlpha, 7}, // COBA x2 (no REV) + EXD
        {ModelKind::IFCondExpGsfaGrr, 13}, // DLIF accum + 6 RR + EXD
    };
    for (const auto &[kind, len] : expected) {
        const MicrocodeProgram p = buildProgram(configFor(kind));
        EXPECT_EQ(p.length(), len) << modelName(kind) << ":\n"
                                   << p.disassemble();
        EXPECT_EQ(p.latencyCycles(), len + 1) << modelName(kind);
    }
}

TEST(Microcode, LifIsTheSingleFusedSignal)
{
    // Table V row "CUB + EXD": v' += eps'_m * v + I in one signal.
    const MicrocodeProgram p = buildProgram(configFor(ModelKind::LIF));
    ASSERT_EQ(p.length(), 1u);
    const MicroOp &op = p.ops()[0];
    EXPECT_EQ(op.a, MulSel::Const);
    EXPECT_EQ(op.b, AddSel::Input);
    EXPECT_EQ(op.s, StateVar::V);
    EXPECT_FALSE(op.exp);
    EXPECT_FALSE(op.sWr);
    EXPECT_TRUE(op.vAcc);
}

TEST(Microcode, QdiUsesTheMultiplierTwice)
{
    // Section V-B: QDI needs two control signals (structural hazard on
    // the single multiplier), so its latency is three cycles.
    const FlexonConfig qif = configFor(ModelKind::QIF);
    const FlexonConfig dlif = configFor(ModelKind::DLIF);
    const MicrocodeProgram pq = buildProgram(qif);
    const MicrocodeProgram pd = buildProgram(dlif);
    EXPECT_EQ(pq.length() - pd.length() + 1, 2u);
    // The second QDI signal multiplies by tmp.
    EXPECT_EQ(pq.ops().back().a, MulSel::Tmp);
}

TEST(Microcode, ExiProgramExponentiates)
{
    const MicrocodeProgram p = buildProgram(configFor(ModelKind::EIF));
    int exp_ops = 0;
    for (const MicroOp &op : p.ops())
        exp_ops += op.exp;
    EXPECT_EQ(exp_ops, 1);
}

TEST(Microcode, ConstantBuffersWithinTableIVLimits)
{
    for (ModelKind kind : allModels()) {
        const MicrocodeProgram p = buildProgram(configFor(kind));
        EXPECT_LE(p.mulConstants().size(), maxMulConstants)
            << modelName(kind);
        EXPECT_LE(p.addConstants().size(), maxAddConstants)
            << modelName(kind);
    }
}

TEST(Microcode, ConstantsAreDeduplicated)
{
    MicrocodeProgram p;
    const uint8_t a = p.mulConst(Fix::fromDouble(0.5));
    const uint8_t b = p.mulConst(Fix::fromDouble(0.5));
    EXPECT_EQ(a, b);
    EXPECT_EQ(p.mulConstants().size(), 1u);
}

TEST(Microcode, MulConstantOverflowIsFatal)
{
    MicrocodeProgram p;
    for (size_t i = 0; i < maxMulConstants; ++i)
        p.mulConst(Fix::fromRaw(static_cast<int64_t>(i)));
    EXPECT_DEATH(p.mulConst(Fix::fromRaw(999)), "overflow");
}

TEST(Microcode, AddConstantOverflowIsFatal)
{
    MicrocodeProgram p;
    for (size_t i = 0; i < maxAddConstants; ++i)
        p.addConst(Fix::fromRaw(static_cast<int64_t>(i)));
    EXPECT_DEATH(p.addConst(Fix::fromRaw(999)), "overflow");
}

TEST(Microcode, DisassemblyListsEverySignal)
{
    const MicrocodeProgram p = buildProgram(configFor(ModelKind::AdEx));
    const std::string dis = p.disassemble();
    EXPECT_NE(dis.find("v_acc"), std::string::npos);
    EXPECT_NE(dis.find("exp(" ), std::string::npos);
    size_t lines = 0;
    for (char c : dis)
        lines += (c == '\n');
    EXPECT_EQ(lines, p.length());
}

/** Drive both implementations with identical inputs; require raw
 * fixed-point equality of all state and identical spikes. */
void
expectBitExact(const FlexonConfig &config, uint64_t seed, int steps)
{
    FlexonNeuron base(config);
    FoldedFlexonNeuron folded(config);
    Rng rng(seed);
    for (int t = 0; t < steps; ++t) {
        std::vector<Fix> in(config.numSynapseTypes, Fix::zero());
        for (auto &x : in) {
            if (rng.bernoulli(0.15))
                x = config.scaleWeight(rng.uniform(-0.3, 0.8));
        }
        const bool fb = base.step(std::span<const Fix>(in));
        const bool ff = folded.step(std::span<const Fix>(in));
        ASSERT_EQ(fb, ff) << config.features.toString() << " step " << t;
        ASSERT_EQ(base.preResetV().raw(), folded.preResetV().raw())
            << config.features.toString() << " step " << t;
        ASSERT_EQ(base.state().v.raw(), folded.state().v.raw());
        ASSERT_EQ(base.state().w.raw(), folded.state().w.raw());
        ASSERT_EQ(base.state().r.raw(), folded.state().r.raw());
        ASSERT_EQ(base.state().cnt, folded.state().cnt);
        for (size_t i = 0; i < config.numSynapseTypes; ++i) {
            ASSERT_EQ(base.state().y[i].raw(),
                      folded.state().y[i].raw());
            ASSERT_EQ(base.state().g[i].raw(),
                      folded.state().g[i].raw());
        }
    }
}

class FoldedBitExact : public ::testing::TestWithParam<ModelKind>
{
};

TEST_P(FoldedBitExact, MatchesBaselineBitForBit)
{
    expectBitExact(configFor(GetParam()),
                   42 + static_cast<uint64_t>(GetParam()), 20000);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, FoldedBitExact, ::testing::ValuesIn(allModels()),
    [](const ::testing::TestParamInfo<ModelKind> &info) {
        return std::string(modelName(info.param));
    });

/** Randomized-parameter sweep of the bit-exactness property. */
TEST(FoldedBitExact, RandomizedConfigurations)
{
    Rng rng(20260704);
    for (int trial = 0; trial < 60; ++trial) {
        NeuronParams p;
        p.features.add(rng.bernoulli(0.8) ? Feature::EXD
                                          : Feature::LID);
        const double accum = rng.uniform();
        if (p.features.has(Feature::LID) || accum < 0.34) {
            p.features.add(Feature::CUB);
        } else if (accum < 0.67) {
            p.features.add(Feature::COBE);
        } else {
            p.features.add(Feature::COBA);
        }
        const bool conductance = !p.features.has(Feature::CUB);
        if (conductance && rng.bernoulli(0.6))
            p.features.add(Feature::REV);
        if (p.features.has(Feature::EXD) && rng.bernoulli(0.4))
            p.features.add(rng.bernoulli(0.5) ? Feature::QDI
                                              : Feature::EXI);
        const double stc = rng.uniform();
        if (stc < 0.25) {
            p.features.add(Feature::ADT);
        } else if (stc < 0.5) {
            p.features.add(Feature::SBT).add(Feature::ADT);
        } else if (stc < 0.7) {
            p.features.add(Feature::RR);
        }
        if (rng.bernoulli(0.7))
            p.features.add(Feature::AR);

        p.numSynapseTypes = 1 + rng.uniformInt(maxSynapseTypes);
        p.epsM = rng.uniform(0.001, 0.2);
        p.vLeak = rng.uniform(0.0, 0.01);
        for (size_t i = 0; i < p.numSynapseTypes; ++i)
            p.syn[i] = {rng.uniform(0.005, 0.3),
                        rng.uniform(-2.0, 4.0)};
        p.deltaT = rng.uniform(0.05, 0.5);
        p.vCrit = rng.uniform(0.2, 0.8);
        p.vFiring = rng.uniform(1.1, 2.0);
        p.epsW = rng.uniform(0.0, 0.05);
        p.a = rng.uniform(0.0, 0.05);
        p.vW = rng.uniform(0.0, 0.5);
        p.b = rng.uniform(-0.2, 0.2);
        p.arSteps = 1 + static_cast<uint32_t>(rng.uniformInt(40));
        p.epsR = rng.uniform(0.0, 0.2);
        p.vRR = rng.uniform(-1.0, 0.0);
        p.vAR = rng.uniform(-1.0, 0.0);
        p.qR = rng.uniform(-0.3, 0.0);

        ASSERT_EQ(p.validate(), "") << p.features.toString();
        expectBitExact(FlexonConfig::fromParams(p), rng.next(), 2000);
    }
}

TEST(FlexonArrayTiming, SingleCycleThroughput)
{
    FlexonArray array(12, 250.0e6);
    array.addPopulation(configFor(ModelKind::LIF), 30);
    EXPECT_EQ(array.cyclesPerStep(), 3u); // ceil(30/12)
    std::vector<double> input(30 * maxSynapseTypes, 0.0);
    std::vector<uint8_t> fired;
    array.step(input, fired);
    array.step(input, fired);
    EXPECT_EQ(array.cycles(), 6u);
    EXPECT_DOUBLE_EQ(array.seconds(), 6.0 / 250.0e6);
}

TEST(FoldedArrayTiming, PipelinedThroughput)
{
    FoldedFlexonArray array(72, 500.0e6);
    array.addPopulation(configFor(ModelKind::DLIF), 144); // 7 ops
    // 2 rounds * 7 ops + 1 drain cycle.
    EXPECT_EQ(array.cyclesPerStep(), 15u);
    std::vector<double> input(144 * maxSynapseTypes, 0.0);
    std::vector<uint8_t> fired;
    array.step(input, fired);
    EXPECT_EQ(array.cycles(), 15u);
    EXPECT_EQ(array.controlSignals(), 144u * 7u);
}

TEST(FoldedArrayTiming, MixedPopulations)
{
    FoldedFlexonArray array(72, 500.0e6);
    array.addPopulation(configFor(ModelKind::LIF), 72);   // 1 op
    array.addPopulation(configFor(ModelKind::AdEx), 72);  // 11 ops
    EXPECT_EQ(array.cyclesPerStep(), 1u + 11u + 1u);
}

TEST(FoldedArrayCheckpoint, RoundTripsAndRejectsAbsentSynapseTypes)
{
    const FlexonConfig config = configFor(ModelKind::Izhikevich);
    ASSERT_LT(config.numSynapseTypes, maxSynapseTypes);
    FoldedFlexonArray array(72, 500.0e6);
    array.addPopulation(config, 3);
    std::vector<double> input(3 * maxSynapseTypes, 0.0);
    for (size_t n = 0; n < 3; ++n)
        input[n * maxSynapseTypes] = 0.5;
    std::vector<uint8_t> fired;
    for (int t = 0; t < 40; ++t)
        array.step(input, fired);
    std::ostringstream saved;
    array.saveState(saved);

    FoldedFlexonArray restored(72, 500.0e6);
    restored.addPopulation(config, 3);
    std::istringstream in(saved.str());
    restored.loadState(in);
    std::ostringstream resaved;
    restored.saveState(resaved);
    EXPECT_EQ(resaved.str(), saved.str());

    // A neuron line is v, y[4], g[4], w, r, cnt, preResetV: give the
    // first neuron a y value for a synapse type its population lacks.
    std::string text = saved.str();
    size_t pos = text.find('\n') + 1;
    for (size_t field = 0; field <= config.numSynapseTypes; ++field)
        pos = text.find(' ', pos) + 1;
    text.erase(pos, text.find(' ', pos) - pos);
    text.insert(pos, 1, '1');
    std::istringstream bad(text);
    EXPECT_EXIT(restored.loadState(bad), ::testing::ExitedWithCode(1),
                "synapse type");
}

TEST(ArrayEquivalence, ArraysMatchSingleNeurons)
{
    const FlexonConfig config = configFor(ModelKind::Izhikevich);
    FlexonArray base_array(12, 250.0e6);
    FoldedFlexonArray folded_array(72, 500.0e6);
    base_array.addPopulation(config, 20);
    folded_array.addPopulation(config, 20);

    Rng rng(9);
    std::vector<double> input(20 * maxSynapseTypes, 0.0);
    std::vector<uint8_t> fb, ff;
    for (int t = 0; t < 3000; ++t) {
        for (size_t n = 0; n < 20; ++n) {
            for (size_t i = 0; i < config.numSynapseTypes; ++i) {
                input[n * maxSynapseTypes + i] =
                    rng.bernoulli(0.1) ? rng.uniform(0.0, 0.6) : 0.0;
            }
        }
        base_array.step(input, fb);
        folded_array.step(input, ff);
        ASSERT_EQ(fb, ff) << "step " << t;
        for (size_t n = 0; n < 20; ++n) {
            ASSERT_EQ(base_array.neuron(n).state().v.raw(),
                      folded_array.neuron(n).state().v.raw());
        }
    }
}

TEST(Microcode, ValidationCatchesBadPrograms)
{
    // A Const MUL operand addressing an unallocated slot.
    MicrocodeProgram bad_ca;
    MicroOp op;
    op.a = MulSel::Const;
    op.ca = 3; // nothing allocated
    bad_ca.append(op);
    EXPECT_NE(bad_ca.validate(1), "");

    // A Const ADD operand addressing an unallocated slot.
    MicrocodeProgram bad_cb;
    op = MicroOp{};
    op.ca = bad_cb.mulConst(Fix::one());
    op.b = AddSel::Const;
    op.cb = 2;
    bad_cb.append(op);
    EXPECT_NE(bad_cb.validate(1), "");

    // An input select beyond the configured synapse types.
    MicrocodeProgram bad_type;
    op = MicroOp{};
    op.ca = bad_type.mulConst(Fix::one());
    op.b = AddSel::Input;
    op.type = 3;
    bad_type.append(op);
    EXPECT_NE(bad_type.validate(2), "");
    EXPECT_EQ(bad_type.validate(4), "");
}

TEST(Microcode, GeneratedProgramsValidate)
{
    for (ModelKind kind : allModels()) {
        const FlexonConfig config = configFor(kind);
        const MicrocodeProgram p = buildProgram(config);
        EXPECT_EQ(p.validate(config.numSynapseTypes), "")
            << modelName(kind);
    }
}

TEST(FoldedNeuron, RejectsCorruptProgramAtConstruction)
{
    const FlexonConfig config = configFor(ModelKind::LIF);
    MicrocodeProgram corrupt;
    MicroOp op;
    op.a = MulSel::Const;
    op.ca = 9; // unallocated
    corrupt.append(op);
    EXPECT_DEATH(FoldedFlexonNeuron(config, corrupt),
                 "invalid microcode");
}

} // namespace
} // namespace flexon
