/**
 * @file
 * Tests for the model registry: builtin seeding matches the legacy
 * ModelKind tables bit for bit, model-file registration (valid and
 * every rejection class), registry-built networks are bit-identical
 * to enum-built ones across thread counts, intrinsic-excitability
 * restart equivalence with STDP active, and the generic-kernel
 * fallback telemetry counter.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>

#include "common/telemetry.hh"
#include "features/model_table.hh"
#include "nets/table1.hh"
#include "registry/model_file.hh"
#include "registry/registry.hh"
#include "snn/plasticity.hh"
#include "snn/simulator.hh"
#include "snn/stdp.hh"

namespace flexon {
namespace {

void
expectSameParams(const NeuronParams &a, const NeuronParams &b)
{
    EXPECT_EQ(a.features, b.features);
    EXPECT_EQ(a.numSynapseTypes, b.numSynapseTypes);
    for (size_t i = 0; i < a.numSynapseTypes; ++i) {
        EXPECT_EQ(a.syn[i].epsG, b.syn[i].epsG);
        EXPECT_EQ(a.syn[i].vG, b.syn[i].vG);
    }
    EXPECT_EQ(a.epsM, b.epsM);
    EXPECT_EQ(a.vLeak, b.vLeak);
    EXPECT_EQ(a.deltaT, b.deltaT);
    EXPECT_EQ(a.vCrit, b.vCrit);
    EXPECT_EQ(a.vFiring, b.vFiring);
    EXPECT_EQ(a.epsW, b.epsW);
    EXPECT_EQ(a.a, b.a);
    EXPECT_EQ(a.vW, b.vW);
    EXPECT_EQ(a.b, b.b);
    EXPECT_EQ(a.arSteps, b.arSteps);
    EXPECT_EQ(a.epsR, b.epsR);
    EXPECT_EQ(a.vRR, b.vRR);
    EXPECT_EQ(a.vAR, b.vAR);
    EXPECT_EQ(a.qR, b.qR);
}

std::string
writeTempFile(const char *name, const std::string &text)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream os(path);
    os << text;
    return path;
}

TEST(Registry, SeedsEveryBuiltinModel)
{
    ModelRegistry &reg = ModelRegistry::instance();
    EXPECT_GE(reg.size(), allModels().size());
    for (const ModelKind kind : allModels()) {
        SCOPED_TRACE(modelName(kind));
        const ModelDescriptor *desc = reg.find(modelName(kind));
        ASSERT_NE(desc, nullptr);
        EXPECT_TRUE(desc->builtin());
        EXPECT_EQ(desc->kind, kind);
        EXPECT_EQ(desc->features(), modelFeatures(kind));
        expectSameParams(desc->params, defaultParams(kind));
        // Every Table III mask has a compiled kernel specialization
        // and a non-empty folded microcode program.
        EXPECT_TRUE(desc->kernel.specialized);
        EXPECT_GT(desc->microcodeOps, 0u);
        EXPECT_EQ(desc->microcodeLatency, desc->microcodeOps + 1);
        EXPECT_FALSE(desc->ie.enabled);
    }
    EXPECT_EQ(reg.find("NoSuchModel"), nullptr);
}

TEST(Registry, FingerprintAndSummaryAreStable)
{
    ModelRegistry &reg = ModelRegistry::instance();
    EXPECT_EQ(reg.fingerprint(), reg.fingerprint());
    const std::string names = reg.namesSummary();
    for (const ModelKind kind : allModels())
        EXPECT_NE(names.find(modelName(kind)), std::string::npos)
            << names;
}

TEST(Registry, RejectsInvalidDescriptors)
{
    ModelRegistry &reg = ModelRegistry::instance();
    std::string err;

    ModelDescriptor badName;
    badName.name = "white space";
    badName.params = defaultParams(ModelKind::LIF);
    EXPECT_FALSE(reg.registerModel(badName, &err));
    EXPECT_NE(err.find("name"), std::string::npos) << err;

    ModelDescriptor dup;
    dup.name = "LIF";
    dup.params = defaultParams(ModelKind::LIF);
    EXPECT_FALSE(reg.registerModel(dup, &err));
    EXPECT_NE(err.find("already registered"), std::string::npos)
        << err;

    // No membrane decay: NeuronParams::validate() tolerates it (the
    // kernel-equivalence suite uses such sets) but a *registered*
    // model must be simulatable on the fixed-point paths, which
    // require EXD or LID.
    ModelDescriptor noDecay;
    noDecay.name = "registry_test_no_decay";
    noDecay.params = defaultParams(ModelKind::LIF);
    noDecay.params.features = {Feature::CUB};
    EXPECT_FALSE(reg.registerModel(noDecay, &err));
    EXPECT_NE(err.find("membrane decay"), std::string::npos) << err;

    ModelDescriptor badIe;
    badIe.name = "registry_test_bad_ie";
    badIe.params = defaultParams(ModelKind::LIF);
    badIe.ie.enabled = true;
    badIe.ie.eta = -1.0;
    EXPECT_FALSE(reg.registerModel(badIe, &err));
    EXPECT_NE(err.find("eta"), std::string::npos) << err;
}

/**
 * The tentpole equivalence: a network built from the registry
 * descriptor must be bit-identical — spike event for spike event —
 * to one built from the legacy enum tables, for every builtin model
 * and across thread counts.
 */
class RegistryEquivalence : public testing::TestWithParam<size_t>
{
};

TEST_P(RegistryEquivalence, MatchesEnumPathBitForBit)
{
    const size_t threads = GetParam();
    for (const ModelKind kind : allModels()) {
        SCOPED_TRACE(modelName(kind));
        const ModelDescriptor *desc =
            ModelRegistry::instance().find(modelName(kind));
        ASSERT_NE(desc, nullptr);

        // Same structure, one parameterized through the registry and
        // one through defaultParams(ModelKind).
        ModelDescriptor enumPath = *desc;
        enumPath.params = defaultParams(kind);

        BenchmarkInstance a = buildModelDemo(*desc, 100, 7);
        BenchmarkInstance b = buildModelDemo(enumPath, 100, 7);

        SimulatorOptions opts;
        opts.threads = threads;
        opts.recordSpikes = true;
        Simulator simA(a.network, a.stimulus, opts);
        Simulator simB(b.network, b.stimulus, opts);
        simA.run(150);
        simB.run(150);

        EXPECT_EQ(simA.spikeCounts(), simB.spikeCounts());
        ASSERT_EQ(simA.spikeEvents().size(),
                  simB.spikeEvents().size());
        for (size_t i = 0; i < simA.spikeEvents().size(); ++i) {
            EXPECT_EQ(simA.spikeEvents()[i].step,
                      simB.spikeEvents()[i].step);
            EXPECT_EQ(simA.spikeEvents()[i].neuron,
                      simB.spikeEvents()[i].neuron);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, RegistryEquivalence,
                         testing::Values(1, 3, 4));

TEST(ModelFile, RegistersOutOfTableModel)
{
    const std::string path = writeTempFile(
        "registry_valid.json",
        "{\n"
        "  \"schema\": \"flexon-models-v1\",\n"
        "  \"models\": {\n"
        "    \"registry_test_LIFL_IE\": {\n"
        "      \"doc\": \"LIF-with-latency plus IE\",\n"
        "      \"features\": \"LID+CUB+AR\",\n"
        "      \"params\": {\n"
        "        \"num_synapse_types\": 2,\n"
        "        \"eps_m\": 0.0,\n"
        "        \"v_leak\": 0.002,\n"
        "        \"ar_steps\": 20,\n"
        "        \"syn0\": {\"eps_g\": 0.02, \"v_g\": 3.0},\n"
        "        \"syn1\": {\"eps_g\": 0.02, \"v_g\": -1.0}\n"
        "      },\n"
        "      \"ie\": {\"eta\": 0.002, \"target_rate\": 0.02,\n"
        "              \"tau\": 200.0, \"min_offset\": -0.5,\n"
        "              \"max_offset\": 0.5}\n"
        "    }\n"
        "  }\n"
        "}\n");
    std::string err;
    ModelRegistry &reg = ModelRegistry::instance();
    ASSERT_EQ(loadModelFile(reg, path, &err), 1) << err;

    const ModelDescriptor *desc = reg.find("registry_test_LIFL_IE");
    ASSERT_NE(desc, nullptr);
    EXPECT_FALSE(desc->builtin());
    EXPECT_EQ(desc->source, path);
    EXPECT_EQ(desc->features().toString(), "LID+CUB+AR");
    EXPECT_EQ(desc->params.vLeak, 0.002);
    EXPECT_EQ(desc->params.arSteps, 20u);
    ASSERT_TRUE(desc->ie.enabled);
    EXPECT_EQ(desc->ie.eta, 0.002);
    EXPECT_EQ(desc->ie.targetRate, 0.02);

    // Loading the same file again collides on the name.
    EXPECT_EQ(loadModelFile(reg, path, &err), -1);
    EXPECT_NE(err.find("already registered"), std::string::npos)
        << err;
}

TEST(ModelFile, RejectsMalformedInput)
{
    ModelRegistry &reg = ModelRegistry::instance();
    std::string err;

    EXPECT_EQ(loadModelFile(reg, testing::TempDir() + "missing.json",
                            &err),
              -1);
    EXPECT_NE(err.find("cannot"), std::string::npos) << err;

    const struct
    {
        const char *name;
        const char *text;
        const char *expect;
    } cases[] = {
        {"registry_bad_schema.json", "{\"schema\": \"bogus\"}",
         "schema"},
        {"registry_no_schema.json", "{\"models\": {}}", "schema"},
        {"registry_bad_json.json", "{\"schema\": ", "offset"},
        {"registry_bad_feature.json",
         "{\"schema\": \"flexon-models-v1\", \"models\": {"
         "\"registry_test_badfeat\": {\"features\": \"LID+WAT\","
         "\"params\": {}}}}",
         "WAT"},
        {"registry_bad_key.json",
         "{\"schema\": \"flexon-models-v1\", \"models\": {"
         "\"registry_test_badkey\": {\"features\": \"LID+CUB\","
         "\"params\": {\"not_a_param\": 1.0}}}}",
         "not_a_param"},
        {"registry_bad_ie.json",
         "{\"schema\": \"flexon-models-v1\", \"models\": {"
         "\"registry_test_badie\": {\"features\": \"LID+CUB\","
         "\"params\": {}, \"ie\": {\"eta\": -0.5}}}}",
         "eta"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        const std::string path = writeTempFile(c.name, c.text);
        err.clear();
        EXPECT_EQ(loadModelFile(reg, path, &err), -1);
        EXPECT_NE(err.find(c.expect), std::string::npos) << err;
    }
}

/** A small IE-enabled network over the discrete reference backend. */
struct IeFixture
{
    ModelDescriptor desc;
    BenchmarkInstance inst;

    explicit IeFixture(uint64_t seed)
        : desc(makeDesc()),
          inst(buildModelDemo(desc, 80, seed))
    {
    }

    static ModelDescriptor makeDesc()
    {
        ModelDescriptor d;
        d.name = "ie_equiv";
        d.params = defaultParams(ModelKind::LLIF);
        d.ie.enabled = true;
        d.ie.eta = 0.005;
        d.ie.targetRate = 0.02;
        d.ie.tau = 50.0;
        return d;
    }
};

std::vector<std::pair<uint64_t, uint32_t>>
events(const Simulator &sim)
{
    std::vector<std::pair<uint64_t, uint32_t>> out;
    for (const SpikeEvent &e : sim.spikeEvents())
        out.emplace_back(e.step, e.neuron);
    return out;
}

/**
 * run(N) must equal run(k) -> save -> restore -> run(N-k) with BOTH
 * rules active: STDP mutating weights and IE mutating per-neuron
 * thresholds. This exercises the v4 plasticity checkpoint block and
 * the IE rule's re-application of offsets after restore.
 */
TEST(IntrinsicExcitability, RestartEquivalenceWithStdp)
{
    const uint64_t total = 240, split = 110;
    SimulatorOptions opts;
    opts.recordSpikes = true;

    StdpConfig stdpCfg;
    stdpCfg.plasticType = 0;

    IeFixture a(11);
    Simulator full(a.inst.network, a.inst.stimulus, opts);
    StdpEngine fullStdp(a.inst.network, stdpCfg);
    IntrinsicExcitabilityRule fullIe(
        full.backend(), a.inst.network.numNeurons(), a.desc.ie);
    full.attachPlasticityRule(&fullStdp);
    full.attachPlasticityRule(&fullIe);
    full.run(total);
    ASSERT_GT(full.stats().spikes, 0u) << "network stayed silent";
    EXPECT_NE(fullIe.meanOffset(), 0.0)
        << "IE never moved a threshold; the test is vacuous";
    EXPECT_GT(full.backend().parameterMutations(), 0u);

    IeFixture b(11);
    std::stringstream snapshot;
    {
        Simulator first(b.inst.network, b.inst.stimulus, opts);
        StdpEngine firstStdp(b.inst.network, stdpCfg);
        IntrinsicExcitabilityRule firstIe(
            first.backend(), b.inst.network.numNeurons(), b.desc.ie);
        first.attachPlasticityRule(&firstStdp);
        first.attachPlasticityRule(&firstIe);
        first.run(split);
        first.saveCheckpoint(snapshot);
    }

    Simulator second(b.inst.network, b.inst.stimulus, opts);
    StdpEngine secondStdp(b.inst.network, stdpCfg);
    IntrinsicExcitabilityRule secondIe(
        second.backend(), b.inst.network.numNeurons(), b.desc.ie);
    second.attachPlasticityRule(&secondStdp);
    second.attachPlasticityRule(&secondIe);
    second.loadCheckpoint(snapshot, &b.inst.network);
    EXPECT_EQ(second.restoredStep(), split);
    second.run(total - split);

    EXPECT_EQ(events(full), events(second));
    EXPECT_EQ(full.spikeCounts(), second.spikeCounts());
    for (size_t n = 0; n < b.inst.network.numNeurons(); ++n) {
        EXPECT_EQ(fullIe.offset(n), secondIe.offset(n)) << n;
        EXPECT_EQ(fullIe.rate(n), secondIe.rate(n)) << n;
    }
}

/** Restoring with mismatched rules must die, not silently diverge. */
TEST(IntrinsicExcitability, RestoreRequiresMatchingRules)
{
    SimulatorOptions opts;

    IeFixture a(13);
    std::stringstream snapshot;
    Simulator first(a.inst.network, a.inst.stimulus, opts);
    IntrinsicExcitabilityRule ie(
        first.backend(), a.inst.network.numNeurons(), a.desc.ie);
    first.attachPlasticityRule(&ie);
    first.run(40);
    first.saveCheckpoint(snapshot);

    IeFixture b(13);
    Simulator second(b.inst.network, b.inst.stimulus, opts);
    EXPECT_DEATH(second.loadCheckpoint(snapshot, &b.inst.network),
                 "plasticity rules");
}

TEST(IntrinsicExcitability, NonFiniteStateRestoresAndResaves)
{
    // The rule writes rates and offsets with operator<<, so a
    // non-finite value is `nan`, `inf` or `-inf` in the checkpoint
    // text; the restore must read it back (and re-apply the offsets)
    // and a re-save must write the same line.
    Network net;
    net.addPopulation("ie", defaultParams(ModelKind::LLIF), 2);
    net.finalize();
    const auto backend = makeReferenceBackend(net);
    IePlasticityConfig config;
    config.enabled = true;
    IntrinsicExcitabilityRule rule(*backend, 2, config);
    const std::string text = "ie 2 nan inf -inf 0.25\n";
    std::istringstream is(text);
    rule.loadState(is);
    EXPECT_EQ(backend->thresholdOffset(0),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(backend->thresholdOffset(1), 0.25);
    std::ostringstream os;
    os << std::setprecision(17);
    rule.saveState(os);
    EXPECT_EQ(os.str(), text);
}

TEST(IntrinsicExcitability, RequiresThresholdCapableBackend)
{
    IeFixture a(17);
    SimulatorOptions opts;
    opts.backend = BackendKind::Flexon; // fixed-point: no offsets
    Simulator sim(a.inst.network, a.inst.stimulus, opts);
    EXPECT_DEATH(IntrinsicExcitabilityRule(
                     sim.backend(), a.inst.network.numNeurons(),
                     a.desc.ie),
                 "threshold");
}

/**
 * Feature masks outside the dispatch table run on the generic kernel
 * and bump kernel_fallback_steps; Table III masks must not.
 */
TEST(Registry, FallbackCounterTracksGenericKernelSteps)
{
    telemetry::Counter &fallback =
        telemetry::Registry::global().counter(
            "kernel_fallback_steps",
            "neuron steps taken by the generic fallback kernel");

    // LID+CUB+RR is valid but deliberately not specialized.
    ModelDescriptor odd;
    odd.name = "registry_test_fallback";
    odd.params = defaultParams(ModelKind::LLIF);
    odd.params.features = {Feature::LID, Feature::CUB, Feature::RR};
    odd.params.epsR = 0.05;
    odd.params.vRR = -0.5;
    odd.params.qR = -0.2;
    std::string err;
    ASSERT_TRUE(
        ModelRegistry::instance().registerModel(odd, &err))
        << err;
    const ModelDescriptor *desc =
        ModelRegistry::instance().find("registry_test_fallback");
    ASSERT_NE(desc, nullptr);
    EXPECT_FALSE(desc->kernel.specialized);

    SimulatorOptions opts;
    opts.backend = BackendKind::Flexon;

    BenchmarkInstance inst = buildModelDemo(*desc, 50, 3);
    const uint64_t before = fallback.value();
    Simulator sim(inst.network, inst.stimulus, opts);
    sim.run(20);
    EXPECT_EQ(fallback.value() - before, 20u * 50u);

    // A specialized mask must leave the counter untouched.
    const ModelDescriptor *llif =
        ModelRegistry::instance().find("LLIF");
    ASSERT_NE(llif, nullptr);
    BenchmarkInstance fast = buildModelDemo(*llif, 50, 3);
    const uint64_t mid = fallback.value();
    Simulator simFast(fast.network, fast.stimulus, opts);
    simFast.run(20);
    EXPECT_EQ(fallback.value(), mid);
}

} // namespace
} // namespace flexon
