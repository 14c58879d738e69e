/**
 * @file
 * Tests for the Table I benchmark generators: the published
 * structure (neuron counts, synapse counts, model, solver) must be
 * reproduced at scale, and the scaled instances must show sustained,
 * non-saturating activity.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <map>

#include "features/model_table.hh"
#include "nets/potjans_diesmann.hh"
#include "nets/table1.hh"
#include "registry/registry.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

TEST(Table1, TenBenchmarksWithPaperStructure)
{
    const auto &specs = table1Benchmarks();
    ASSERT_EQ(specs.size(), 10u);

    // Spot-check the published rows.
    const BenchmarkSpec &brunel = findBenchmark("Brunel");
    EXPECT_EQ(brunel.neurons, 5000u);
    EXPECT_EQ(brunel.synapses, 2500000u);
    EXPECT_EQ(brunel.model, "IF_psc_alpha");
    EXPECT_EQ(brunel.solver, SolverKind::Euler);

    const BenchmarkSpec &izh = findBenchmark("Izhikevich");
    EXPECT_EQ(izh.neurons, 10000u);
    EXPECT_EQ(izh.synapses, 10000000u);
    EXPECT_EQ(izh.model, "Izhikevich");
    EXPECT_TRUE(izh.gpuNative);

    const BenchmarkSpec &muller = findBenchmark("Muller");
    EXPECT_EQ(muller.neurons, 1728u);
    EXPECT_EQ(muller.model, "IF_cond_exp_gsfa_grr");
    EXPECT_EQ(muller.solver, SolverKind::RKF45);

    const BenchmarkSpec &potjans = findBenchmark("Potjans-Diesmann");
    EXPECT_EQ(potjans.model, "DSRM0");

    const BenchmarkSpec &va = findBenchmark("Vogels-Abbott");
    EXPECT_EQ(va.neurons, 4000u);
    EXPECT_EQ(va.synapses, 320000u);
    EXPECT_EQ(va.model, "DLIF");
}

TEST(Table1, ScaledInstancePreservesDensity)
{
    const BenchmarkSpec &spec = findBenchmark("Vogels-Abbott");
    BenchmarkInstance inst = buildBenchmark(spec, 10.0, 42);
    EXPECT_NEAR(inst.network.numNeurons(), 400.0, 1.0);
    // Density preserved: expected synapses ~ (N/10)^2 * p = 3200.
    const double expected =
        static_cast<double>(spec.synapses) / (10.0 * 10.0);
    EXPECT_NEAR(static_cast<double>(inst.network.numSynapses()),
                expected, 0.15 * expected);
}

TEST(Table1, EightyTwentySplit)
{
    BenchmarkInstance inst =
        buildBenchmark(findBenchmark("Brunel"), 10.0, 42);
    ASSERT_EQ(inst.network.numPopulations(), 2u);
    const double exc =
        static_cast<double>(inst.network.population(0).count);
    const double inh =
        static_cast<double>(inst.network.population(1).count);
    EXPECT_NEAR(exc / (exc + inh), 0.8, 0.01);
}

TEST(Table1, InstanceIsDeterministic)
{
    const BenchmarkSpec &spec = findBenchmark("Nowotny");
    BenchmarkInstance a = buildBenchmark(spec, 5.0, 7);
    BenchmarkInstance b = buildBenchmark(spec, 5.0, 7);
    EXPECT_EQ(a.network.numSynapses(), b.network.numSynapses());
}

/** Every benchmark must run with sustained, bounded activity. */
class Table1Activity
    : public ::testing::TestWithParam<size_t>
{
};

TEST_P(Table1Activity, SustainedBoundedFiring)
{
    const BenchmarkSpec &spec = table1Benchmarks()[GetParam()];
    // Aggressive scaling keeps the test fast.
    const double scale =
        std::max(1.0, static_cast<double>(spec.neurons) / 300.0);
    BenchmarkInstance inst = buildBenchmark(spec, scale, 99);

    Simulator sim(inst.network, inst.stimulus);
    sim.run(2000);

    const double rate = sim.meanRate(); // spikes/neuron/step
    EXPECT_GT(rate, 1e-4) << spec.name << ": network is silent";
    EXPECT_LT(rate, 0.2) << spec.name << ": network saturates";
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, Table1Activity, ::testing::Range<size_t>(0, 10),
    [](const ::testing::TestParamInfo<size_t> &info) {
        std::string name = table1Benchmarks()[info.param].name;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

// ---- Potjans–Diesmann microcircuit ------------------------------

TEST(Microcircuit, EightPopulationsWithPublishedSizes)
{
    const auto &sizes = microcircuitFullSizes();
    ASSERT_EQ(sizes.size(), microcircuitPopulations);
    EXPECT_EQ(sizes[0], 20683u); // L2/3E
    EXPECT_EQ(sizes[1], 5834u);  // L2/3I
    EXPECT_EQ(sizes[2], 21915u); // L4E
    EXPECT_EQ(sizes[3], 5479u);  // L4I
    EXPECT_EQ(sizes[4], 4850u);  // L5E
    EXPECT_EQ(sizes[5], 1065u);  // L5I
    EXPECT_EQ(sizes[6], 14395u); // L6E
    EXPECT_EQ(sizes[7], 2948u);  // L6I
    size_t total = 0;
    for (const size_t n : sizes)
        total += n;
    EXPECT_EQ(total, 77169u);

    MicrocircuitOptions opts;
    opts.scale = 40.0;
    MicrocircuitInstance inst = buildMicrocircuit(opts);
    ASSERT_EQ(inst.network.numPopulations(),
              microcircuitPopulations);
    for (size_t p = 0; p < microcircuitPopulations; ++p) {
        EXPECT_EQ(inst.network.population(p).name,
                  microcircuitPopulationNames()[p]);
        EXPECT_EQ(inst.network.population(p).count,
                  inst.popSizes[p]);
        EXPECT_NEAR(static_cast<double>(inst.popSizes[p]),
                    static_cast<double>(sizes[p]) / opts.scale, 1.0);
    }
}

TEST(Microcircuit, WiredInDegreesMatchTheMatrix)
{
    MicrocircuitOptions opts;
    opts.scale = 60.0;
    MicrocircuitInstance inst = buildMicrocircuit(opts);
    const Network &net = inst.network;

    // Count realized synapses per (target-pop, source-pop) pair.
    std::map<std::pair<size_t, size_t>, size_t> counts;
    for (uint32_t src = 0; src < net.numNeurons(); ++src) {
        const size_t sp = &net.populationOf(src) -
                          &net.population(0);
        for (const Synapse &syn : net.outgoing(src)) {
            const size_t tp = &net.populationOf(syn.target) -
                              &net.population(0);
            ++counts[{tp, sp}];
        }
    }

    // The realized per-target in-degree equals the scaled matrix,
    // except that recurrent (same-population) pairs lose the autapse
    // draws the generator skips: a 1/N fraction of them.
    for (size_t t = 0; t < microcircuitPopulations; ++t) {
        for (size_t s = 0; s < microcircuitPopulations; ++s) {
            double expected =
                static_cast<double>(inst.inDegrees[t][s] *
                                    inst.popSizes[t]);
            if (t == s)
                expected *= 1.0 - 1.0 / static_cast<double>(
                                            inst.popSizes[t]);
            const double got =
                static_cast<double>(counts[{t, s}]);
            if (expected == 0.0)
                EXPECT_EQ(got, 0.0) << "t=" << t << " s=" << s;
            else
                EXPECT_NEAR(got, expected, 0.01 * expected + 2.0)
                    << "t=" << t << " s=" << s;
        }
    }

    // Strongest published projections survive scaling: the L5I->L5E
    // loop (C = 0.373) must out-wire L5E's other inhibitory inputs.
    EXPECT_GT(inst.inDegrees[4][5], inst.inDegrees[4][3]);
    // L6I->L6E (0.225) dominates the other cross-layer inputs to
    // L6E.
    EXPECT_GT(inst.inDegrees[6][7], inst.inDegrees[6][1]);
}

TEST(Microcircuit, DelayRangesSplitByProjectionSign)
{
    MicrocircuitOptions opts;
    opts.scale = 80.0;
    MicrocircuitInstance inst = buildMicrocircuit(opts);
    const Network &net = inst.network;
    for (uint32_t src = 0; src < net.numNeurons(); ++src) {
        const size_t sp =
            &net.populationOf(src) - &net.population(0);
        const bool exc = sp % 2 == 0;
        for (const Synapse &syn : net.outgoing(src)) {
            if (exc) {
                EXPECT_EQ(syn.type, 0);
                EXPECT_GE(syn.delay, 8);
                EXPECT_LE(syn.delay, 23);
                EXPECT_GT(syn.weight, 0.0f);
            } else {
                EXPECT_EQ(syn.type, 1);
                EXPECT_GE(syn.delay, 4);
                EXPECT_LE(syn.delay, 11);
                EXPECT_LT(syn.weight, 0.0f);
            }
        }
    }
    EXPECT_GE(net.maxDelay(), 20);
}

TEST(Microcircuit, SeededBuildsReproduceAtSeveralScales)
{
    for (const double scale : {30.0, 60.0, 120.0}) {
        MicrocircuitOptions opts;
        opts.scale = scale;
        opts.seed = 11;
        MicrocircuitInstance a = buildMicrocircuit(opts);
        MicrocircuitInstance b = buildMicrocircuit(opts);
        ASSERT_EQ(a.network.numSynapses(), b.network.numSynapses())
            << "scale " << scale;
        ASSERT_EQ(a.network.numNeurons(), b.network.numNeurons());
        for (uint32_t src = 0; src < a.network.numNeurons();
             src += 17) {
            const auto ra = a.network.outgoing(src);
            const auto rb = b.network.outgoing(src);
            ASSERT_EQ(ra.size(), rb.size());
            for (size_t i = 0; i < ra.size(); ++i) {
                EXPECT_EQ(ra[i].target, rb[i].target);
                EXPECT_EQ(ra[i].weight, rb[i].weight);
                EXPECT_EQ(ra[i].delay, rb[i].delay);
            }
        }
        // A different seed rewires.
        opts.seed = 12;
        MicrocircuitInstance c = buildMicrocircuit(opts);
        bool differs =
            c.network.numSynapses() != a.network.numSynapses();
        for (uint32_t src = 0;
             !differs && src < a.network.numNeurons(); ++src) {
            const auto ra = a.network.outgoing(src);
            const auto rc = c.network.outgoing(src);
            if (ra.size() != rc.size()) {
                differs = true;
                break;
            }
            for (size_t i = 0; i < ra.size(); ++i)
                if (ra[i].target != rc[i].target) {
                    differs = true;
                    break;
                }
        }
        EXPECT_TRUE(differs) << "scale " << scale;
    }
}

TEST(Microcircuit, FewHertzRegimeAndRateKnob)
{
    MicrocircuitOptions opts;
    opts.scale = 50.0;
    MicrocircuitInstance inst = buildMicrocircuit(opts);
    Simulator sim(inst.network, inst.stimulus);
    sim.run(2000);
    const double background = sim.meanRate();
    EXPECT_GT(background, 1e-4) << "microcircuit is silent";
    EXPECT_LT(background, 3e-3) << "background regime too hot";

    opts.rateScale = 8.0;
    MicrocircuitInstance hot = buildMicrocircuit(opts);
    Simulator hotSim(hot.network, hot.stimulus);
    hotSim.run(2000);
    EXPECT_GT(hotSim.meanRate(), 3.0 * background);
    EXPECT_LT(hotSim.meanRate(), 0.05);
}

// ---- Golden fingerprints ----------------------------------------

/**
 * FNV-1a over everything a builder produces: the storage form, each
 * population's name, count and parameters, every row through rowFor
 * (target, weight bits, delay, type) and the first 200 steps of the
 * stimulus. Any change to a builder's streams, expressions or sizes
 * moves it, so the constants below pin the generated networks (and
 * with them spike trains, benchmark digests and checkpoints).
 */
uint64_t
fingerprint(const Network &net, StimulusGenerator &stim)
{
    uint64_t hash = 1469598103934665603ULL;
    const auto mix = [&hash](uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            hash ^= (v >> (b * 8)) & 0xff;
            hash *= 1099511628211ULL;
        }
    };
    const auto mixReal = [&mix](double v) {
        mix(std::bit_cast<uint64_t>(v));
    };
    mix(net.hasSpec());
    mix(net.procedural());
    for (size_t p = 0; p < net.numPopulations(); ++p) {
        const Population &pop = net.population(p);
        mix(pop.name.size());
        for (const char c : pop.name)
            mix(static_cast<uint8_t>(c));
        mix(pop.count);
        const NeuronParams &np = pop.params;
        mix(np.features.raw());
        mix(np.numSynapseTypes);
        mix(np.arSteps);
        for (const double v :
             {np.epsM, np.vLeak, np.deltaT, np.vCrit, np.vFiring,
              np.epsW, np.a, np.vW, np.b, np.epsR, np.vRR, np.vAR,
              np.qR})
            mixReal(v);
        for (const SynapseTypeParams &syn : np.syn) {
            mixReal(syn.epsG);
            mixReal(syn.vG);
        }
    }
    std::vector<Synapse> scratch;
    for (uint32_t src = 0; src < net.numNeurons(); ++src) {
        const std::span<const Synapse> row = net.rowFor(src, scratch);
        mix(row.size());
        for (const Synapse &syn : row) {
            mix(syn.target);
            mix(std::bit_cast<uint32_t>(syn.weight));
            mix(syn.delay);
            mix(syn.type);
        }
    }
    for (uint64_t t = 0; t < 200; ++t) {
        const std::vector<StimulusSpike> &spikes = stim.generate(t);
        mix(spikes.size());
        for (const StimulusSpike &s : spikes) {
            mix(s.target);
            mix(std::bit_cast<uint32_t>(s.weight));
            mix(s.type);
        }
    }
    return hash;
}

constexpr std::array<Wiring, 3> allWirings = {
    Wiring::Staged, Wiring::Spec, Wiring::Procedural};

TEST(BuilderFingerprint, Table1EveryWiring)
{
    // {staged, spec, procedural} at scale 40, seed 5.
    const std::map<std::string, std::array<uint64_t, 3>> golden = {
        {"Brette", {0x81f7827170d246f0ULL, 0x8099d5a486250067ULL,
                    0x3768a1db3b99488eULL}},
        {"Brunel", {0xbad1b9ddaea4f2b1ULL, 0xc9d21d155ddca317ULL,
                    0xc2808dce6d84caf6ULL}},
        {"Destexhe-LTS", {0x859233f21f1b2f44ULL, 0x2f8c2ccd9f8f62a1ULL,
                          0xbb25a86d3f2ab66cULL}},
        {"Destexhe-UpDown",
         {0x1176444d2251dccbULL, 0x2d67e5697621e09aULL,
          0xe1c66339463e34d3ULL}},
        {"Izhikevich", {0x5596c1ebf21abf3eULL, 0x2ffe80e0fbdff24fULL,
                        0x82b3fb02d7ace046ULL}},
        {"Muller", {0xb4e224bf873136acULL, 0xa335057b9b398cf1ULL,
                    0x7c66a9805361393cULL}},
        {"Nowotny", {0x4a81ebbaaeeb4b13ULL, 0x29e4712d3179734fULL,
                     0xd726561be65f0df6ULL}},
        {"Potjans-Diesmann",
         {0xb89ef43246ce2222ULL, 0x607396fb80214b97ULL,
          0x0e972f31933d4276ULL}},
        {"Vogels", {0x6aab52d8a7fd9dfeULL, 0x2f0ba2ce1673a54eULL,
                    0x3807d7ec620ad1bfULL}},
        {"Vogels-Abbott", {0x59e8238a7cb65995ULL, 0x18958cc44d01ec22ULL,
                           0x4a40ce3b8e62e6d7ULL}},
    };
    ASSERT_EQ(golden.size(), table1Benchmarks().size());
    for (const BenchmarkSpec &spec : table1Benchmarks()) {
        for (size_t w = 0; w < allWirings.size(); ++w) {
            BenchmarkInstance inst =
                buildBenchmark(spec, 40.0, 5, allWirings[w]);
            EXPECT_EQ(fingerprint(inst.network, inst.stimulus),
                      golden.at(spec.name)[w])
                << spec.name << " wiring " << w;
        }
    }
}

TEST(BuilderFingerprint, ModelDemoEveryBuiltinModel)
{
    // 80 neurons, seed 5.
    const std::map<std::string, uint64_t> golden = {
        {"LIF", 0x5072f8f96954194fULL},
        {"LLIF", 0x93dba9f2026d5fb7ULL},
        {"SLIF", 0xe22015b240db9b57ULL},
        {"DSRM0", 0xadba4a07c2f86827ULL},
        {"DLIF", 0xffd739965f455c07ULL},
        {"QIF", 0x8d3e30c751eac733ULL},
        {"EIF", 0x4775a30c81700c03ULL},
        {"Izhikevich", 0x7950fe7102e7257fULL},
        {"AdEx", 0x6f730b035d29db8fULL},
        {"AdEx_COBA", 0x82311e07431f6177ULL},
        {"IF_psc_alpha", 0x0c09fc00895829abULL},
        {"IF_cond_exp_gsfa_grr", 0x50197171676f6287ULL},
    };
    ASSERT_EQ(golden.size(), allModels().size());
    for (const ModelKind kind : allModels()) {
        const ModelDescriptor *desc =
            ModelRegistry::instance().find(modelName(kind));
        ASSERT_NE(desc, nullptr);
        BenchmarkInstance inst = buildModelDemo(*desc, 80, 5);
        EXPECT_EQ(fingerprint(inst.network, inst.stimulus),
                  golden.at(desc->name))
            << desc->name;
    }
}

TEST(BuilderFingerprint, MicrocircuitEveryWiringAndDrive)
{
    // {staged, spec, procedural} at scale 40, seed 5, x1 and x8.
    const std::map<double, std::array<uint64_t, 3>> golden = {
        {1.0, {0xd02472b2ffbb99a6ULL, 0x8dcc087790e90e98ULL,
               0x968d908095bdf48dULL}},
        {8.0, {0x6d89caaea186936aULL, 0x878650d0eb34383cULL,
               0x22093514d6f5ca6dULL}},
    };
    for (const auto &[rateScale, expected] : golden) {
        MicrocircuitOptions opts;
        opts.scale = 40.0;
        opts.seed = 5;
        opts.rateScale = rateScale;
        for (size_t w = 0; w < allWirings.size(); ++w) {
            MicrocircuitInstance inst =
                buildMicrocircuit(opts, allWirings[w]);
            EXPECT_EQ(fingerprint(inst.network, inst.stimulus),
                      expected[w])
                << "x" << rateScale << " wiring " << w;
        }
    }
}

} // namespace
} // namespace flexon
