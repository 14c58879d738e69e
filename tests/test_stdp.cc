/**
 * @file
 * Tests for the STDP engine: trace dynamics, the sign of the learning
 * window (pre-before-post potentiates, post-before-pre depresses),
 * weight clamping, type selectivity, and the classic correlation
 * experiment (synapses from inputs correlated with the postsynaptic
 * neuron win the competition).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <iomanip>
#include <sstream>
#include <string>

#include "features/model_table.hh"
#include "snn/simulator.hh"
#include "snn/stdp.hh"

namespace flexon {
namespace {

/** Two neurons, one plastic synapse 0 -> 1. */
Network
pairNetwork(float w0, uint8_t type = 0)
{
    Network net;
    net.addPopulation("pair", defaultParams(ModelKind::LIF), 2);
    net.addSynapse(0, {1, w0, 1, type});
    net.finalize();
    return net;
}

/** Drive the engine with an explicit spike schedule. */
void
applySchedule(StdpEngine &engine, size_t neurons,
              const std::vector<std::pair<int, uint32_t>> &spikes,
              int steps)
{
    std::vector<uint8_t> fired(neurons, 0);
    for (int t = 0; t < steps; ++t) {
        std::fill(fired.begin(), fired.end(), uint8_t{0});
        for (const auto &[when, who] : spikes)
            if (when == t)
                fired[who] = 1;
        engine.onStep(fired);
    }
}

TEST(Stdp, TraceBumpsAndDecays)
{
    Network net = pairNetwork(0.5f);
    StdpConfig config;
    config.tauPlus = 100.0;
    StdpEngine engine(net, config);
    applySchedule(engine, 2, {{0, 0}}, 1);
    EXPECT_DOUBLE_EQ(engine.preTrace(0), 1.0);
    applySchedule(engine, 2, {}, 100);
    EXPECT_NEAR(engine.preTrace(0), std::exp(-1.0), 0.01);
}

TEST(Stdp, PreBeforePostPotentiates)
{
    Network net = pairNetwork(0.5f);
    StdpEngine engine(net);
    // Pre (0) fires at t=5; post (1) fires at t=10.
    applySchedule(engine, 2, {{5, 0}, {10, 1}}, 20);
    EXPECT_GT(net.outgoing(0)[0].weight, 0.5f);
}

TEST(Stdp, PostBeforePreDepresses)
{
    Network net = pairNetwork(0.5f);
    StdpEngine engine(net);
    applySchedule(engine, 2, {{5, 1}, {10, 0}}, 20);
    EXPECT_LT(net.outgoing(0)[0].weight, 0.5f);
}

TEST(Stdp, WindowDecaysWithLag)
{
    auto potentiation = [](int lag) {
        Network net = pairNetwork(0.5f);
        StdpEngine engine(net);
        applySchedule(engine, 2, {{5, 0}, {5 + lag, 1}},
                      5 + lag + 5);
        return net.outgoing(0)[0].weight - 0.5f;
    };
    const float near = potentiation(2);
    const float far = potentiation(150);
    EXPECT_GT(near, far);
    EXPECT_GT(far, 0.0f);
}

TEST(Stdp, WeightsClampToBounds)
{
    Network net = pairNetwork(0.99f);
    StdpConfig config;
    config.aPlus = 0.5;
    config.wMax = 1.0f;
    StdpEngine engine(net, config);
    for (int round = 0; round < 10; ++round)
        applySchedule(engine, 2, {{1, 0}, {2, 1}}, 5);
    EXPECT_LE(net.outgoing(0)[0].weight, 1.0f);

    Network net2 = pairNetwork(0.01f);
    StdpConfig config2;
    config2.aMinus = 0.5;
    config2.wMin = 0.0f;
    StdpEngine engine2(net2, config2);
    for (int round = 0; round < 10; ++round)
        applySchedule(engine2, 2, {{1, 1}, {2, 0}}, 5);
    EXPECT_GE(net2.outgoing(0)[0].weight, 0.0f);
}

TEST(Stdp, NonPlasticTypesUntouched)
{
    Network net = pairNetwork(0.5f, /*type=*/1); // inhibitory slot
    StdpEngine engine(net); // plasticType defaults to 0
    EXPECT_EQ(engine.plasticSynapses(), 0u);
    applySchedule(engine, 2, {{5, 0}, {10, 1}}, 20);
    EXPECT_FLOAT_EQ(net.outgoing(0)[0].weight, 0.5f);
}

TEST(Stdp, ExactCoincidenceIsNotDoubleCounted)
{
    // Same-step pre and post: LTD reads the post trace before its
    // bump and LTP reads the pre trace before its bump, so the net
    // change from a single exact coincidence is zero.
    Network net = pairNetwork(0.5f);
    StdpEngine engine(net);
    applySchedule(engine, 2, {{5, 0}, {5, 1}}, 10);
    EXPECT_FLOAT_EQ(net.outgoing(0)[0].weight, 0.5f);
}

TEST(Stdp, CorrelatedInputsWinTheCompetition)
{
    // 20 inputs feed one LIF output. Inputs 0..9 fire together
    // (correlated with the output's spikes they cause); inputs
    // 10..19 fire independently at the same mean rate. The classic
    // result: correlated synapses end up stronger.
    // Weights are sized so a synchronous volley fires the output
    // (10 x 15 x eps_m = 1.5 > threshold) while the mean asynchronous
    // drive stays subthreshold (20 x 15 x 0.005 x 1 = 0.15).
    Network net;
    NeuronParams lif = defaultParams(ModelKind::LIF);
    net.addPopulation("in", lif, 20);
    net.addPopulation("out", lif, 1);
    for (uint32_t i = 0; i < 20; ++i)
        net.addSynapse(i, {20, 15.0f, 1, 0});
    net.finalize();

    StdpConfig config;
    config.aPlus = 0.02;
    config.aMinus = 0.002; // mild depression for this driven setup
    config.tauPlus = 20.0;
    config.tauMinus = 20.0;
    config.wMax = 30.0f;
    config.wMin = 2.0f;
    StdpEngine engine(net, config);

    // External forcing of the input layer plus manual one-step-delay
    // routing through the plastic synapses (weights are read live,
    // so the STDP updates feed back into the dynamics).
    auto backend = makeReferenceBackend(net);
    Rng rng(123);
    std::vector<double> input(net.numNeurons() * maxSynapseTypes,
                              0.0);
    std::vector<double> routed(input.size(), 0.0);
    std::vector<uint8_t> fired;
    for (int t = 0; t < 60000; ++t) {
        std::swap(input, routed);
        std::fill(routed.begin(), routed.end(), 0.0);
        const bool volley = rng.bernoulli(0.005);
        for (uint32_t i = 0; i < 10; ++i)
            if (volley)
                input[i * maxSynapseTypes] = 200.0;
        for (uint32_t i = 10; i < 20; ++i)
            if (rng.bernoulli(0.005))
                input[i * maxSynapseTypes] = 200.0;

        backend->step(input, fired);
        engine.onStep(fired);
        for (uint32_t i = 0; i < 20; ++i) {
            if (fired[i]) {
                const Synapse &syn = net.outgoing(i)[0];
                routed[syn.target * maxSynapseTypes + syn.type] +=
                    syn.weight;
            }
        }
    }

    double corr = 0.0, uncorr = 0.0;
    for (uint32_t i = 0; i < 10; ++i)
        corr += net.outgoing(i)[0].weight;
    for (uint32_t i = 10; i < 20; ++i)
        uncorr += net.outgoing(i)[0].weight;
    EXPECT_GT(corr / 10.0, 1.15 * (uncorr / 10.0));
}

TEST(Stdp, NonFiniteTracesRestoreAndResave)
{
    // Checkpoints write traces with operator<<, so a non-finite trace
    // is `nan`, `inf` or `-inf` in the text; the restore must read it
    // back and a re-save must write the same line.
    Network net = pairNetwork(0.5f);
    StdpEngine engine(net, {});
    const std::string text = "stdp 2 nan inf -inf 0.25\n";
    std::istringstream is(text);
    engine.loadState(is);
    std::ostringstream os;
    os << std::setprecision(17);
    engine.saveState(os);
    EXPECT_EQ(os.str(), text);
}

TEST(Stdp, MeanWeightDiagnostics)
{
    Network net = pairNetwork(0.5f);
    StdpEngine engine(net);
    EXPECT_EQ(engine.plasticSynapses(), 1u);
    EXPECT_FLOAT_EQ(static_cast<float>(engine.meanPlasticWeight()),
                    0.5f);
}

} // namespace
} // namespace flexon
