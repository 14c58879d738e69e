/**
 * @file
 * Tests for network serialization: exact round-trips of populations,
 * parameters and synapses; format validation; and the end-to-end
 * property that a saved-and-reloaded network reproduces the original
 * simulation bit for bit on the hardware backends.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "nets/table1.hh"
#include "snn/serialize.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

Network
sampleNetwork(uint64_t seed)
{
    Network net;
    const size_t a = net.addPopulation(
        "exc cells", defaultParams(ModelKind::AdEx), 30);
    const size_t b = net.addPopulation(
        "inh", defaultParams(ModelKind::IFCondExpGsfaGrr), 10);
    Rng rng(seed);
    net.connectRandom(a, b, 0.2, 0.3, 1, 9, 0, rng);
    net.connectRandom(b, a, 0.3, -0.8, 2, 4, 1, rng);
    net.finalize();
    return net;
}

TEST(Serialize, RoundTripPreservesStructure)
{
    const Network original = sampleNetwork(5);
    std::stringstream buffer;
    saveNetwork(buffer, original);
    const Network loaded = loadNetwork(buffer);

    ASSERT_EQ(loaded.numPopulations(), original.numPopulations());
    ASSERT_EQ(loaded.numNeurons(), original.numNeurons());
    ASSERT_EQ(loaded.numSynapses(), original.numSynapses());
    EXPECT_EQ(loaded.maxDelay(), original.maxDelay());

    for (size_t p = 0; p < original.numPopulations(); ++p) {
        const Population &orig = original.population(p);
        const Population &got = loaded.population(p);
        EXPECT_EQ(got.name, orig.name);
        EXPECT_EQ(got.count, orig.count);
        EXPECT_EQ(got.params.features, orig.params.features);
        EXPECT_EQ(got.params.numSynapseTypes,
                  orig.params.numSynapseTypes);
        EXPECT_DOUBLE_EQ(got.params.epsM, orig.params.epsM);
        EXPECT_DOUBLE_EQ(got.params.b, orig.params.b);
        EXPECT_DOUBLE_EQ(got.params.vRR, orig.params.vRR);
        EXPECT_EQ(got.params.arSteps, orig.params.arSteps);
        for (size_t i = 0; i < orig.params.numSynapseTypes; ++i) {
            EXPECT_DOUBLE_EQ(got.params.syn[i].epsG,
                             orig.params.syn[i].epsG);
            EXPECT_DOUBLE_EQ(got.params.syn[i].vG,
                             orig.params.syn[i].vG);
        }
    }

    for (uint32_t n = 0; n < original.numNeurons(); ++n) {
        auto o = original.outgoing(n);
        auto l = loaded.outgoing(n);
        ASSERT_EQ(o.size(), l.size()) << "neuron " << n;
        for (size_t i = 0; i < o.size(); ++i) {
            EXPECT_EQ(l[i].target, o[i].target);
            EXPECT_EQ(l[i].weight, o[i].weight);
            EXPECT_EQ(l[i].delay, o[i].delay);
            EXPECT_EQ(l[i].type, o[i].type);
        }
    }
}

TEST(Serialize, ReloadedNetworkSimulatesIdentically)
{
    const Network original = sampleNetwork(11);
    std::stringstream buffer;
    saveNetwork(buffer, original);
    const Network loaded = loadNetwork(buffer);

    auto run = [](const Network &net) {
        StimulusGenerator stim(3);
        stim.addSource(StimulusSource::poisson(
            0, static_cast<uint32_t>(net.numNeurons()), 0.05, 0.5f,
            0));
        SimulatorOptions opts;
        opts.backend = BackendKind::Folded;
        opts.recordSpikes = true;
        Simulator sim(net, stim, opts);
        sim.run(1500);
        return sim.spikeEvents();
    };
    const auto a = run(original);
    const auto b = run(loaded);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].step, b[i].step);
        EXPECT_EQ(a[i].neuron, b[i].neuron);
    }
    EXPECT_GT(a.size(), 0u);
}

TEST(Serialize, FuzzedNetworksRoundTripExactly)
{
    // Randomized finalized networks: random population mix (every
    // model kind reachable), random counts, perturbed double
    // parameters (stressing the 17-digit encoding with values that
    // have no short decimal form), random wiring. Each must round
    // trip exactly — structural equality and a byte-identical
    // re-serialization.
    Rng fuzz(0xf00dULL);
    for (int iter = 0; iter < 25; ++iter) {
        Network net;
        const size_t numPops = 1 + fuzz.uniformInt(4);
        for (size_t p = 0; p < numPops; ++p) {
            const auto kind = static_cast<ModelKind>(
                fuzz.uniformInt(numModels));
            NeuronParams params = defaultParams(kind);
            // Perturb continuous parameters with full-entropy
            // doubles; keep them positive and sane.
            params.epsM *= 1.0 + 0.25 * fuzz.uniform();
            params.vLeak *= 1.0 + 0.25 * fuzz.uniform();
            for (size_t t = 0; t < params.numSynapseTypes; ++t)
                params.syn[t].epsG *= 1.0 + 0.25 * fuzz.uniform();
            net.addPopulation("pop" + std::to_string(p), params,
                              1 + fuzz.uniformInt(40));
        }
        for (size_t e = 0; e < numPops + 2; ++e) {
            const size_t from = fuzz.uniformInt(numPops);
            const size_t to = fuzz.uniformInt(numPops);
            const float w = static_cast<float>(
                fuzz.uniform(-1.0, 1.0));
            const auto dmin =
                static_cast<uint8_t>(1 + fuzz.uniformInt(4));
            const auto dmax = static_cast<uint8_t>(
                dmin + fuzz.uniformInt(10));
            net.connectRandom(from, to, 0.1 + 0.3 * fuzz.uniform(),
                              w, dmin, dmax,
                              static_cast<uint8_t>(
                                  fuzz.uniformInt(2)),
                              fuzz);
        }
        net.finalize();

        std::stringstream first;
        saveNetwork(first, net);
        const Network loaded = loadNetwork(first);

        ASSERT_EQ(loaded.numPopulations(), net.numPopulations())
            << "iter " << iter;
        ASSERT_EQ(loaded.numNeurons(), net.numNeurons())
            << "iter " << iter;
        ASSERT_EQ(loaded.numSynapses(), net.numSynapses())
            << "iter " << iter;

        // Byte-identical re-serialization subsumes per-field exact
        // equality: any drifting double, weight, delay or name would
        // change the text.
        std::stringstream second;
        saveNetwork(second, loaded);
        ASSERT_EQ(first.str(), second.str()) << "iter " << iter;
    }
}

TEST(Serialize, TableOneBenchmarkRoundTrips)
{
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Muller"), 20.0, 7);
    std::stringstream buffer;
    saveNetwork(buffer, inst.network);
    const Network loaded = loadNetwork(buffer);
    EXPECT_EQ(loaded.numNeurons(), inst.network.numNeurons());
    EXPECT_EQ(loaded.numSynapses(), inst.network.numSynapses());
}

TEST(Serialize, RejectsBadMagic)
{
    std::stringstream buffer("not-a-network v1\n");
    EXPECT_DEATH(loadNetwork(buffer), "magic");
}

TEST(Serialize, RejectsWrongVersion)
{
    std::stringstream buffer("flexon-network v999\npopulations 0\n");
    EXPECT_DEATH(loadNetwork(buffer), "version");
}

TEST(Serialize, RejectsNonNumericVersionWithoutAborting)
{
    std::stringstream buffer("flexon-network vX\npopulations 0\n");
    EXPECT_EXIT(loadNetwork(buffer), ::testing::ExitedWithCode(1),
                "malformed version field 'vX'");
}

/**
 * A saved 50-neuron network with its first synapse record replaced by
 * `record` ("src target weight delay type").
 */
std::string
withFirstSynapse(const std::string &record)
{
    Network net;
    const size_t a =
        net.addPopulation("a", defaultParams(ModelKind::LIF), 50);
    Rng rng(5);
    net.connectRandom(a, a, 0.1, 0.3, 1, 3, 0, rng);
    net.finalize();
    std::stringstream buffer;
    saveNetwork(buffer, net);
    std::string text = buffer.str();
    const size_t header = text.find("\nsynapses ");
    const size_t first = text.find('\n', header + 1) + 1;
    const size_t end = text.find('\n', first);
    text.replace(first, end - first, record);
    return text;
}

// Each bad record is a diagnostic naming it and exit 1: not the
// network's assertions (an abort), and not a silent misread.

TEST(Serialize, RejectsSynapseSourceOutsideTheNetwork)
{
    std::stringstream edited(withFirstSynapse("50 1 0.3 1 0"));
    EXPECT_EXIT(loadNetwork(edited), ::testing::ExitedWithCode(1),
                "synapse record 0: 50 -> 1 is outside the 50 neurons");
}

TEST(Serialize, RejectsSynapseTargetOutsideTheNetwork)
{
    std::stringstream edited(withFirstSynapse("0 4000000000 0.3 1 0"));
    EXPECT_EXIT(loadNetwork(edited), ::testing::ExitedWithCode(1),
                "synapse record 0: 0 -> 4000000000 is outside");
}

TEST(Serialize, RejectsSynapseDelayZero)
{
    std::stringstream edited(withFirstSynapse("0 1 0.3 0 0"));
    EXPECT_EXIT(loadNetwork(edited), ::testing::ExitedWithCode(1),
                "synapse record 0: delay 0 is outside \\[1, 255\\]");
}

TEST(Serialize, RejectsSynapseDelayAbove255)
{
    // A uint8_t cast used to load this as delay 44.
    std::stringstream edited(withFirstSynapse("0 1 0.3 300 0"));
    EXPECT_EXIT(loadNetwork(edited), ::testing::ExitedWithCode(1),
                "synapse record 0: delay 300 is outside \\[1, 255\\]");
}

TEST(Serialize, RejectsSynapseTypeOutOfRange)
{
    std::stringstream edited(withFirstSynapse("0 1 0.3 1 4"));
    EXPECT_EXIT(loadNetwork(edited), ::testing::ExitedWithCode(1),
                "synapse record 0: type 4 is outside \\[0, 4\\)");
}

TEST(Serialize, RejectsTruncatedFile)
{
    const Network original = sampleNetwork(13);
    std::stringstream buffer;
    saveNetwork(buffer, original);
    std::string text = buffer.str();
    text.resize(text.size() / 2);
    std::stringstream truncated(text);
    EXPECT_DEATH(loadNetwork(truncated), "malformed");
}

TEST(Serialize, RejectsEmptyPopulationRecord)
{
    // A `pop NAME 0` record is bad input: a diagnostic and exit 1,
    // not the network's count > 0 assertion (an abort).
    Network net;
    net.addPopulation("a", defaultParams(ModelKind::LIF), 4);
    net.finalize();
    std::stringstream buffer;
    saveNetwork(buffer, net);
    std::string text = buffer.str();
    const size_t at = text.find("pop a 4 ");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 8, "pop a 0 ");
    std::stringstream edited(text);
    EXPECT_EXIT(loadNetwork(edited), ::testing::ExitedWithCode(1),
                "empty population record 0");
}

TEST(Serialize, RefusesUnfinalizedNetwork)
{
    Network net;
    net.addPopulation("a", defaultParams(ModelKind::LIF), 4);
    std::stringstream buffer;
    EXPECT_DEATH(saveNetwork(buffer, net), "finalized");
}

} // namespace
} // namespace flexon
