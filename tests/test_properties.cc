/**
 * @file
 * Cross-cutting property tests spanning modules: boundedness of the
 * dynamics, monotonicity of drive, scale invariance of the benchmark
 * generators, determinism across backends, and the hardware-model
 * saturation behaviour under adversarial inputs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/random.hh"
#include "features/model_table.hh"
#include "flexon/neuron.hh"
#include "folded/neuron.hh"
#include "models/reference_neuron.hh"
#include "nets/table1.hh"
#include "snn/serialize.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

TEST(Property, ReferenceStaysFiniteUnderBoundedInput)
{
    // No NaN/inf escapes any model for inputs within +/- 10 over
    // long runs (double-precision reference; the fixed-point models
    // saturate by construction).
    Rng rng(71);
    for (ModelKind kind : allModels()) {
        ReferenceNeuron n(defaultParams(kind));
        for (int t = 0; t < 20000; ++t) {
            n.step(rng.uniform(-10.0, 10.0));
            ASSERT_TRUE(std::isfinite(n.state().v))
                << modelName(kind) << " step " << t;
            ASSERT_TRUE(std::isfinite(n.state().w));
            ASSERT_TRUE(std::isfinite(n.state().g[0]));
        }
    }
}

TEST(Property, HardwareSaturatesInsteadOfWrapping)
{
    // Adversarial inputs at the fixed-point limits: the hardware
    // models must saturate (bounded raw values), never wrap, and
    // keep spiking deterministically.
    for (ModelKind kind : {ModelKind::AdEx, ModelKind::Izhikevich}) {
        const FlexonConfig c =
            FlexonConfig::fromParams(defaultParams(kind));
        FlexonNeuron base(c);
        FoldedFlexonNeuron folded(c);
        const Fix huge = Fix::fromRaw(Fix::rawMax);
        for (int t = 0; t < 200; ++t) {
            const bool fb = base.step(huge);
            const bool ff = folded.step(huge);
            ASSERT_EQ(fb, ff) << modelName(kind) << " step " << t;
            ASSERT_LE(base.state().v.raw(), Fix::rawMax);
            ASSERT_GE(base.state().v.raw(), Fix::rawMin);
        }
    }
}

TEST(Property, StrongerDriveNeverFiresFewerLifSpikes)
{
    // Monotone drive property of the hard-threshold current models.
    for (ModelKind kind : {ModelKind::LIF, ModelKind::SLIF}) {
        int prev = -1;
        for (double drive : {0.5, 1.2, 2.0, 4.0, 8.0}) {
            ReferenceNeuron n(defaultParams(kind));
            int spikes = 0;
            for (int t = 0; t < 10000; ++t)
                spikes += n.step(drive);
            EXPECT_GE(spikes, prev)
                << modelName(kind) << " drive " << drive;
            prev = spikes;
        }
    }
}

TEST(Property, BenchmarkActivityIsScaleInvariant)
{
    // The gain-based weight derivation keeps the firing rate stable
    // across instance sizes (within a factor ~2: finite-size noise).
    for (const char *name : {"Vogels-Abbott", "Brunel"}) {
        double rates[2] = {0.0, 0.0};
        const double scales[2] = {40.0, 13.0};
        for (int i = 0; i < 2; ++i) {
            BenchmarkInstance inst =
                buildBenchmark(findBenchmark(name), scales[i], 5);
            Simulator sim(inst.network, inst.stimulus);
            sim.run(2000);
            rates[i] = sim.meanRate();
        }
        ASSERT_GT(rates[0], 0.0) << name;
        ASSERT_GT(rates[1], 0.0) << name;
        const double ratio = rates[0] / rates[1];
        EXPECT_GT(ratio, 0.5) << name;
        EXPECT_LT(ratio, 2.0) << name;
    }
}

TEST(Property, BackendsDeterministicAcrossConstruction)
{
    // Building the same simulation twice (fresh arrays, fresh
    // microcode) must reproduce every spike, for every backend.
    for (BackendKind kind :
         {BackendKind::Reference, BackendKind::Flexon,
          BackendKind::Folded}) {
        uint64_t spikes[2];
        for (int run = 0; run < 2; ++run) {
            BenchmarkInstance inst = buildBenchmark(
                findBenchmark("Izhikevich"), 100.0, 17);
            SimulatorOptions opts;
            opts.backend = kind;
            Simulator sim(inst.network, inst.stimulus, opts);
            sim.run(1500);
            spikes[run] = sim.stats().spikes;
        }
        EXPECT_EQ(spikes[0], spikes[1]) << backendName(kind);
    }
}

TEST(Property, TruncationNeverIncreasesStoredMagnitude)
{
    Rng rng(91);
    for (int i = 0; i < 10000; ++i) {
        const Fix v = Fix::fromDouble(rng.uniform(-3.0, 3.0));
        const Fix t = truncateMembrane(v);
        ASSERT_GE(t.raw(), 0);
        ASSERT_LT(t.raw(), Fix::rawOne);
        if (v.raw() >= 0 && v.raw() < Fix::rawOne) {
            ASSERT_EQ(t.raw(), v.raw()); // identity inside [0, 1)
        }
    }
}

TEST(Property, ProgramLengthBoundsFoldedLatency)
{
    // For every model: folded latency == signals + 1, and the
    // signal count never exceeds what a naive one-op-per-equation
    // lowering would need (a sanity ceiling of 4 ops per feature per
    // synapse type).
    for (ModelKind kind : allModels()) {
        const NeuronParams p = defaultParams(kind);
        const FlexonConfig c = FlexonConfig::fromParams(p);
        const MicrocodeProgram prog = buildProgram(c);
        EXPECT_EQ(prog.latencyCycles(), prog.length() + 1)
            << modelName(kind);
        const size_t ceiling =
            4 * p.features.count() * c.numSynapseTypes;
        EXPECT_LE(prog.length(), ceiling) << modelName(kind);
    }
}

TEST(Property, SerializedBenchmarkSimulatesLikeTheOriginal)
{
    // Random benchmark -> save -> load -> identical folded run.
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Nowotny"), 30.0, 23);
    std::stringstream buffer;
    saveNetwork(buffer, inst.network);
    const Network loaded = loadNetwork(buffer);

    auto spikes = [&](const Network &net) {
        StimulusGenerator stim(9);
        stim.addSource(StimulusSource::poisson(
            0, static_cast<uint32_t>(net.numNeurons()), 0.02, 2.0f,
            0));
        SimulatorOptions opts;
        opts.backend = BackendKind::Folded;
        Simulator sim(net, stim, opts);
        sim.run(1200);
        return sim.stats().spikes;
    };
    EXPECT_EQ(spikes(inst.network), spikes(loaded));
}

} // namespace
} // namespace flexon
