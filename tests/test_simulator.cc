/**
 * @file
 * Tests for the three-phase SNN simulation engine: stimulus
 * statistics, delayed spike propagation, backend agreement, phase
 * timing plumbing, and determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include <cmath>

#include "common/stats.hh"
#include "features/model_table.hh"
#include "snn/backend.hh"
#include "snn/simulator.hh"
#include "bernoulli_cases.hh"

namespace flexon {
namespace {

TEST(Stimulus, PoissonRateStatistics)
{
    StimulusGenerator gen(3);
    gen.addSource(StimulusSource::poisson(0, 100, 0.05, 0.5f, 0));
    uint64_t total = 0;
    const int steps = 10000;
    for (int t = 0; t < steps; ++t)
        total += gen.generate(t).size();
    // E = 100 * 0.05 * steps = 50000; binomial sd ~218.
    EXPECT_NEAR(static_cast<double>(total), 50000.0, 1200.0);
    EXPECT_NEAR(gen.expectedSpikesPerStep(), 5.0, 1e-12);
}

/** A Poisson source's parameters, for the reference draw below. */
struct PoissonSpec
{
    uint32_t base;
    uint32_t count;
    double p;
    float weight;
    uint8_t type;
};

/** The generator text of `sources` Poisson sources at RNG state `st`. */
std::string
poissonGeneratorState(size_t sources, const RngState &st)
{
    std::ostringstream os;
    os << "stimulus " << sources << "\nrng " << st.s[0] << ' ' << st.s[1]
       << ' ' << st.s[2] << ' ' << st.s[3] << ' ' << st.cachedNormal
       << ' ' << (st.hasCachedNormal ? 1 : 0) << '\n';
    for (size_t i = 0; i < sources; ++i)
        os << "source 0\n";
    return os.str();
}

/**
 * Run `steps` steps of a generator over `specs` from RNG state `st`
 * and require every step to equal a loop of Rng::bernoulli on the
 * same stream, spike for spike, and the final state text to equal
 * the reference stream's.
 */
void
expectPoissonMatchesBernoulli(const std::vector<PoissonSpec> &specs,
                              const RngState &st, int steps)
{
    StimulusGenerator gen;
    for (const PoissonSpec &sp : specs) {
        gen.addSource(StimulusSource::poisson(sp.base, sp.count, sp.p,
                                              sp.weight, sp.type));
    }
    std::istringstream in(poissonGeneratorState(specs.size(), st));
    gen.loadState(in);
    Rng ref;
    ref.setState(st);
    std::vector<StimulusSpike> expected;
    for (int t = 0; t < steps; ++t) {
        expected.clear();
        for (const PoissonSpec &sp : specs) {
            for (uint32_t i = 0; i < sp.count; ++i) {
                if (ref.bernoulli(sp.p))
                    expected.push_back({sp.base + i, sp.weight, sp.type});
            }
        }
        const std::vector<StimulusSpike> &got = gen.generate(t);
        ASSERT_EQ(got.size(), expected.size())
            << "step " << t << " p = " << specs[0].p << ", "
            << specs.back().p << " count " << specs[0].count;
        for (size_t k = 0; k < got.size(); ++k) {
            EXPECT_EQ(got[k].target, expected[k].target) << t;
            EXPECT_EQ(got[k].weight, expected[k].weight) << t;
            EXPECT_EQ(got[k].type, expected[k].type) << t;
        }
    }
    std::ostringstream saved;
    gen.saveState(saved);
    EXPECT_EQ(saved.str(), poissonGeneratorState(specs.size(), ref.state()));
}

TEST(Stimulus, PoissonDrawMatchesBernoulliStream)
{
    // The mask draw against Rng::bernoulli on the same seed: block
    // lengths around 64 at non-zero bases, over the edge and random
    // probabilities, then draws placed exactly on each threshold.
    const std::vector<double> edges = bernoulliEdgeProbabilities();
    const std::vector<double> randoms =
        bernoulliRandomProbabilities(1000, 2024);
    const uint32_t counts[] = {1, 63, 64, 65, 130};
    const auto specs = [](uint32_t count, double pa, double pb) {
        return std::vector<PoissonSpec>{
            {3, count, pa, 0.5f, 0}, {3 + count + 7, count, pb, 1.5f, 1}};
    };
    uint64_t seed = 1;
    for (const uint32_t count : counts) {
        for (size_t i = 0; i < edges.size(); ++i) {
            expectPoissonMatchesBernoulli(
                specs(count, edges[i], edges[(i + 5) % edges.size()]),
                Rng(seed++).state(), 200);
        }
    }
    for (size_t i = 0; i < randoms.size(); i += 2) {
        expectPoissonMatchesBernoulli(
            specs(counts[i / 2 % 5], randoms[i], randoms[i + 1]),
            Rng(seed++).state(), 200);
    }
    for (const double p : edges) {
        const uint64_t threshold = Rng::bernoulliThreshold(p);
        for (const uint64_t k : {threshold - 1, threshold}) {
            if (k < (uint64_t{1} << 53)) {
                expectPoissonMatchesBernoulli(
                    specs(1, p, p), rngStateDrawing(k << 11 | 0x7ff), 1);
            }
        }
    }
}

TEST(Stimulus, OrnsteinUhlenbeckStatistics)
{
    // Stationary OU: mean ~ ouMean, sd ~ sigma (before the
    // non-negativity clamp, which barely binds at mean >> sigma).
    StimulusGenerator gen(5);
    gen.addSource(StimulusSource::ou(0, 1, 2.0, 0.3, 50.0, 0));
    Summary s;
    for (int t = 0; t < 60000; ++t) {
        const auto &spikes = gen.generate(t);
        ASSERT_EQ(spikes.size(), 1u); // one analog input per step
        if (t > 1000)
            s.add(spikes[0].weight);
    }
    EXPECT_NEAR(s.mean(), 2.0, 0.05);
    EXPECT_NEAR(s.stddev(), 0.3, 0.05);
    EXPECT_GE(s.min(), 0.0);
}

TEST(Stimulus, OrnsteinUhlenbeckIsTemporallyCorrelated)
{
    // Autocorrelation at lag tau should be ~ 1/e; at lag 10*tau ~ 0.
    StimulusGenerator gen(9);
    const double tau = 40.0;
    gen.addSource(StimulusSource::ou(0, 1, 1.0, 0.2, tau, 0));
    std::vector<double> x;
    for (int t = 0; t < 60000; ++t)
        x.push_back(gen.generate(t)[0].weight);
    auto autocorr = [&](int lag) {
        Summary all;
        for (double v : x)
            all.add(v);
        double num = 0.0;
        for (size_t i = 0; i + lag < x.size(); ++i)
            num += (x[i] - all.mean()) * (x[i + lag] - all.mean());
        return num / (static_cast<double>(x.size() - lag) *
                      all.variance());
    };
    EXPECT_NEAR(autocorr(static_cast<int>(tau)), std::exp(-1.0),
                0.08);
    EXPECT_NEAR(autocorr(static_cast<int>(10 * tau)), 0.0, 0.1);
}

TEST(Stimulus, PatternFiresOnPeriod)
{
    StimulusGenerator gen(3);
    gen.addSource(StimulusSource::pattern(10, 4, 25, 1.0f, 0));
    EXPECT_EQ(gen.generate(0).size(), 4u);
    EXPECT_EQ(gen.generate(1).size(), 0u);
    EXPECT_EQ(gen.generate(24).size(), 0u);
    EXPECT_EQ(gen.generate(25).size(), 4u);
    const auto &spikes = gen.generate(50);
    ASSERT_EQ(spikes.size(), 4u);
    EXPECT_EQ(spikes[0].target, 10u);
    EXPECT_EQ(spikes[3].target, 13u);
}

/** Two LIF neurons: 0 drives 1 through a synapse with delay d. */
Network
chainNetwork(uint8_t delay, float weight)
{
    Network net;
    NeuronParams p = defaultParams(ModelKind::LIF);
    net.addPopulation("chain", p, 2);
    net.addSynapse(0, {1, weight, delay, 0});
    net.finalize();
    return net;
}

/** One LIF population of `count` unconnected neurons. */
Network
lifPopulation(size_t count)
{
    Network net;
    net.addPopulation("pop", defaultParams(ModelKind::LIF), count);
    net.finalize();
    return net;
}

const IntegrationMode kIntegrationModes[] = {IntegrationMode::Discrete,
                                             IntegrationMode::Continuous};

TEST(Population, StepsAllNeuronsAndReportsSpikes)
{
    const Network net = lifPopulation(8);
    for (const IntegrationMode mode : kIntegrationModes) {
        SCOPED_TRACE(static_cast<int>(mode));
        const auto backend = makeReferenceBackend(net, mode);
        std::vector<double> input(8 * maxSynapseTypes, 0.0);
        // Drive only neuron 3 above threshold.
        input[3 * maxSynapseTypes] = 1.5;
        std::vector<uint8_t> fired;
        int spikes3 = 0, others = 0;
        for (int t = 0; t < 500; ++t) {
            backend->step(input, fired);
            ASSERT_EQ(fired.size(), 8u);
            for (size_t i = 0; i < fired.size(); ++i) {
                if (fired[i])
                    (i == 3 ? spikes3 : others) += 1;
            }
        }
        EXPECT_GT(spikes3, 0);
        EXPECT_EQ(others, 0);
    }
}

TEST(Population, ResetRestoresRestingState)
{
    const Network net = lifPopulation(4);
    for (const IntegrationMode mode : kIntegrationModes) {
        SCOPED_TRACE(static_cast<int>(mode));
        const auto backend = makeReferenceBackend(net, mode);
        std::vector<double> input(4 * maxSynapseTypes, 0.0);
        for (size_t i = 0; i < 4; ++i)
            input[i * maxSynapseTypes] = 0.5;
        std::vector<uint8_t> fired;
        backend->step(input, fired);
        EXPECT_GT(backend->membrane(0), 0.0);
        backend->reset();
        EXPECT_DOUBLE_EQ(backend->membrane(0), 0.0);
    }
}

TEST(Population, NonFiniteStateCheckpointRestores)
{
    // The NaN detector's default Report policy lets a run with a
    // non-finite membrane go on and write checkpoints; they must
    // restore, by bits. Inputs of +/-inf put inf and -inf in the
    // state, and the poisoned membrane a NaN.
    const Network net = lifPopulation(6);
    for (const IntegrationMode mode : kIntegrationModes) {
        SCOPED_TRACE(static_cast<int>(mode));
        const auto backend = makeReferenceBackend(net, mode);
        std::vector<double> input(6 * maxSynapseTypes, 0.3);
        input[0] = std::numeric_limits<double>::infinity();
        input[maxSynapseTypes] = -std::numeric_limits<double>::infinity();
        std::vector<uint8_t> fired;
        backend->step(input, fired);
        ASSERT_TRUE(backend->debugPoisonMembrane(2));
        std::ostringstream saved;
        saved << std::setprecision(17);
        backend->saveState(saved);
        EXPECT_NE(saved.str().find("nan"), std::string::npos);
        EXPECT_NE(saved.str().find("-inf"), std::string::npos);

        const auto restored = makeReferenceBackend(net, mode);
        std::istringstream is(saved.str());
        restored->loadState(is);
        for (size_t i = 0; i < 6; ++i) {
            EXPECT_EQ(std::bit_cast<uint64_t>(restored->membrane(i)),
                      std::bit_cast<uint64_t>(backend->membrane(i)))
                << "neuron " << i;
        }
        std::ostringstream resaved;
        resaved << std::setprecision(17);
        restored->saveState(resaved);
        EXPECT_EQ(resaved.str(), saved.str());
    }
}

TEST(Simulator, SpikePropagatesAfterExactDelay)
{
    // CUB injects the weight as instantaneous current scaled by
    // epsilon_m (Equation 2): a single-impulse weight of 150 yields
    // dv = 1.5 and fires the LIF neuron in the same step.
    for (uint8_t delay : {1, 3, 7}) {
        Network net = chainNetwork(delay, 150.0f);
        StimulusGenerator stim(1);
        stim.addSource(StimulusSource::pattern(0, 1, 40, 150.0f, 0));

        SimulatorOptions opts;
        opts.recordSpikes = true;
        Simulator sim(net, stim, opts);
        sim.run(200);

        // Neuron 1's earliest possible spike is neuron 0's spike
        // plus exactly the synaptic delay.
        std::vector<uint64_t> t0, t1;
        for (const SpikeEvent &e : sim.spikeEvents())
            (e.neuron == 0 ? t0 : t1).push_back(e.step);
        ASSERT_FALSE(t0.empty());
        ASSERT_FALSE(t1.empty()) << "delay " << int(delay);
        // The input arrives at t0.front() + delay; the CUB current
        // applies that same step, so neuron 1's first possible spike
        // is at least that step.
        EXPECT_GE(t1.front(), t0.front() + delay);
    }
}

TEST(Simulator, WeightBelowThresholdNeverPropagates)
{
    // dv = 0.25 per kick; the 40-step decay keeps the steady peak
    // well below threshold.
    Network net = chainNetwork(1, 25.0f);
    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 40, 150.0f, 0));
    SimulatorOptions opts;
    opts.recordSpikes = true;
    Simulator sim(net, stim, opts);
    sim.run(400);
    for (const SpikeEvent &e : sim.spikeEvents())
        EXPECT_EQ(e.neuron, 0u);
}

TEST(Simulator, StatsCountersConsistent)
{
    Network net = chainNetwork(1, 150.0f);
    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 40, 150.0f, 0));
    Simulator sim(net, stim);
    sim.run(300);
    const PhaseStats &st = sim.stats();
    EXPECT_EQ(st.steps, 300u);
    EXPECT_GT(st.spikes, 0u);
    EXPECT_EQ(st.spikes,
              sim.spikeCounts()[0] + sim.spikeCounts()[1]);
    // Every neuron-0 spike crosses the single synapse.
    EXPECT_EQ(st.synapseEvents, sim.spikeCounts()[0]);
    EXPECT_GT(st.neuronSec, 0.0);
    EXPECT_GT(st.totalSec(), 0.0);
    EXPECT_NEAR(sim.meanRate(),
                static_cast<double>(st.spikes) / (300.0 * 2.0), 1e-12);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    auto run = [] {
        Network net;
        NeuronParams p = defaultParams(ModelKind::DLIF);
        const size_t a = net.addPopulation("a", p, 50);
        Rng rng(31);
        net.connectRandom(a, a, 0.1, 0.05, 1, 5, 0, rng);
        net.finalize();
        StimulusGenerator stim(9);
        stim.addSource(StimulusSource::poisson(0, 50, 0.05, 0.4f, 0));
        Simulator sim(net, stim);
        sim.run(500);
        return sim.stats().spikes;
    };
    EXPECT_EQ(run(), run());
}

TEST(Simulator, ResetRestoresInitialConditions)
{
    Network net = chainNetwork(1, 150.0f);
    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 40, 150.0f, 0));
    Simulator sim(net, stim);
    sim.run(250);
    const uint64_t first = sim.stats().spikes;
    ASSERT_GT(first, 0u);
    sim.reset();
    EXPECT_EQ(sim.stats().spikes, 0u);
    EXPECT_EQ(sim.currentStep(), 0u);
    sim.run(250);
    EXPECT_EQ(sim.stats().spikes, first);
}

/** All three backends must see identical spike totals on a LIF net
 * (fixed-point error is far below the drive margin here). */
TEST(Simulator, BackendsAgreeOnStronglyDrivenLif)
{
    for (BackendKind kind :
         {BackendKind::Reference, BackendKind::Flexon,
          BackendKind::Folded}) {
        Network net = chainNetwork(2, 300.0f);
        StimulusGenerator stim(1);
        stim.addSource(StimulusSource::pattern(0, 1, 50, 150.0f, 0));
        SimulatorOptions opts;
        opts.backend = kind;
        Simulator sim(net, stim, opts);
        sim.run(500);
        EXPECT_EQ(sim.spikeCounts()[0], 10u) << backendName(kind);
        EXPECT_EQ(sim.spikeCounts()[1], 10u) << backendName(kind);
    }
}

TEST(Simulator, HardwareBackendsReportModelTime)
{
    Network net = chainNetwork(1, 150.0f);
    StimulusGenerator stim(1);
    SimulatorOptions opts;
    opts.backend = BackendKind::Folded;
    Simulator sim(net, stim, opts);
    sim.run(10);
    EXPECT_GT(sim.stats().modelNeuronSec, 0.0);

    SimulatorOptions ref_opts;
    Simulator ref_sim(net, stim, ref_opts);
    ref_sim.run(10);
    EXPECT_EQ(ref_sim.stats().modelNeuronSec, 0.0);
}

TEST(Simulator, FlexonAndFoldedBackendsBitIdenticalOnNetwork)
{
    auto spikes = [](BackendKind kind) {
        Network net;
        NeuronParams p = defaultParams(ModelKind::Izhikevich);
        const size_t a = net.addPopulation("a", p, 40);
        Rng rng(41);
        net.connectRandom(a, a, 0.15, 0.5, 1, 6, 0, rng);
        net.finalize();
        StimulusGenerator stim(17);
        stim.addSource(StimulusSource::poisson(0, 40, 0.08, 2.0f, 0));
        SimulatorOptions opts;
        opts.backend = kind;
        opts.recordSpikes = true;
        Simulator sim(net, stim, opts);
        sim.run(2000);
        return sim.spikeEvents();
    };
    const auto a = spikes(BackendKind::Flexon);
    const auto b = spikes(BackendKind::Folded);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].step, b[i].step);
        EXPECT_EQ(a[i].neuron, b[i].neuron);
    }
}

TEST(Simulator, ProbesRecordMembraneTraces)
{
    Network net = chainNetwork(1, 150.0f);
    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 40, 90.0f, 0));
    SimulatorOptions opts;
    opts.probes = {0, 1};
    Simulator sim(net, stim, opts);
    sim.run(100);

    const auto &v0 = sim.probeTrace(0);
    const auto &v1 = sim.probeTrace(1);
    ASSERT_EQ(v0.size(), 100u);
    ASSERT_EQ(v1.size(), 100u);
    // Neuron 0 receives a 0.9 kick at t=0 and decays exponentially;
    // neuron 1 stays silent (the kick is subthreshold, no spikes).
    EXPECT_NEAR(v0[0], 0.9, 1e-9);
    EXPECT_LT(v0[30], v0[1]);
    for (double v : v1)
        EXPECT_DOUBLE_EQ(v, 0.0);

    sim.reset();
    EXPECT_TRUE(sim.probeTrace(0).empty());
}

TEST(Simulator, ProbesWorkOnHardwareBackends)
{
    Network net = chainNetwork(1, 150.0f);
    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 40, 90.0f, 0));
    SimulatorOptions opts;
    opts.backend = BackendKind::Folded;
    opts.probes = {0};
    Simulator sim(net, stim, opts);
    sim.run(50);
    EXPECT_NEAR(sim.probeTrace(0)[0], 0.9, 1e-4);
}

TEST(Simulator, HeterogeneousModelMixOnHardwareBackends)
{
    // One network mixing four Table III models: the arrays must
    // configure per-population datapaths/programs and stay
    // bit-identical to each other.
    Network net;
    net.addPopulation("lif", defaultParams(ModelKind::LIF), 10);
    net.addPopulation("dlif", defaultParams(ModelKind::DLIF), 10);
    net.addPopulation("izh", defaultParams(ModelKind::Izhikevich),
                      10);
    net.addPopulation("gsfa",
                      defaultParams(ModelKind::IFCondExpGsfaGrr), 10);
    Rng rng(3);
    for (size_t src = 0; src < 4; ++src)
        for (size_t dst = 0; dst < 4; ++dst)
            net.connectRandom(src, dst, 0.1, 0.4, 1, 4, 0, rng);
    net.finalize();

    auto events = [&](BackendKind kind) {
        StimulusGenerator stim(5);
        stim.addSource(StimulusSource::poisson(0, 40, 0.05, 1.5f, 0));
        SimulatorOptions opts;
        opts.backend = kind;
        opts.recordSpikes = true;
        Simulator sim(net, stim, opts);
        sim.run(1500);
        return sim.spikeEvents();
    };
    const auto flexon = events(BackendKind::Flexon);
    const auto folded = events(BackendKind::Folded);
    const auto reference = events(BackendKind::Reference);

    ASSERT_EQ(flexon.size(), folded.size());
    for (size_t i = 0; i < flexon.size(); ++i) {
        EXPECT_EQ(flexon[i].step, folded[i].step);
        EXPECT_EQ(flexon[i].neuron, folded[i].neuron);
    }
    EXPECT_GT(flexon.size(), 0u);
    // The reference agrees within a few percent on totals.
    EXPECT_NEAR(static_cast<double>(reference.size()),
                static_cast<double>(flexon.size()),
                0.1 * static_cast<double>(reference.size()) + 5.0);
}

TEST(Simulator, StatsDumpHasGem5Shape)
{
    Network net = chainNetwork(1, 150.0f);
    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 40, 150.0f, 0));
    SimulatorOptions opts;
    opts.backend = BackendKind::Folded;
    Simulator sim(net, stim, opts);
    sim.run(200);

    std::ostringstream oss;
    sim.printStats(oss);
    const std::string out = oss.str();

    // One `name value  # desc` line per statistic.
    std::map<std::string, std::string> lines;  // name -> desc
    std::map<std::string, std::string> values; // name -> value
    std::istringstream in(out);
    for (std::string line; std::getline(in, line);) {
        const size_t hash = line.find("  # ");
        if (hash == std::string::npos)
            continue;
        std::istringstream fields(line.substr(0, hash));
        std::string name;
        fields >> name >> values[name];
        lines[name] = line.substr(hash + 4);
    }

    // Generated from the registry: every counter, gauge and timer,
    // with its registry description.
    telemetry::Registry &metrics = sim.metrics();
    const telemetry::MetricsSnapshot snap = metrics.snapshot();
    auto expectLine = [&](const std::string &name,
                          const std::string &desc) {
        ASSERT_EQ(lines.count(name), 1u) << name << " not in the dump";
        EXPECT_FALSE(desc.empty()) << name;
        EXPECT_EQ(lines[name], desc) << name;
    };
    for (const auto &[name, value] : snap.counters)
        expectLine(name, metrics.counter(name).desc());
    for (const auto &[name, value] : snap.gauges)
        expectLine(name, metrics.gauge(name).desc());
    for (const auto &[name, value] : snap.timers)
        expectLine(name, metrics.timer(name).desc());
    EXPECT_EQ(values["sim.steps"], "200");
    // Then the derived ratios.
    for (const char *derived :
         {"sim.rate", "sim.steps_per_sec", "phase.neuron_share",
          "hw.speedup_vs_host"})
        EXPECT_EQ(lines.count(derived), 1u) << derived;
}

TEST(Simulator, ResetClearsLastFired)
{
    // A reset right after a step with spikes must not leave stale
    // fired flags behind: a plasticity engine consulting lastFired()
    // after reset() would otherwise apply phantom updates.
    Network net = chainNetwork(1, 150.0f);
    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 1, 150.0f, 0));
    Simulator sim(net, stim);
    uint64_t steps = 0;
    while (sim.stats().spikes == 0 && steps < 100) {
        sim.stepOnce();
        ++steps;
    }
    ASSERT_GT(sim.stats().spikes, 0u);
    ASSERT_NE(std::count(sim.lastFired().begin(),
                         sim.lastFired().end(), uint8_t{1}),
              0);
    sim.reset();
    EXPECT_TRUE(sim.lastFired().empty());
    EXPECT_EQ(sim.router().events(), 0u);
    // And stats survive the reset with the table footprint intact.
    EXPECT_GT(sim.metrics()
                  .gauge("snn.connectivity.provider_bytes")
                  .value(),
              0.0);
    EXPECT_EQ(sim.router().bucketsVisited(), 0u);
}

TEST(Simulator, RunReservesSpikeEventStorage)
{
    // run() pre-sizes the spike-event log from the step count and
    // the observed rate, so recording does not reallocate per spike.
    Network net = chainNetwork(1, 150.0f);
    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 2, 150.0f, 0));
    SimulatorOptions opts;
    opts.recordSpikes = true;
    opts.probes = {0};
    Simulator sim(net, stim, opts);
    sim.run(200);
    EXPECT_GT(sim.spikeEvents().size(), 0u);
    EXPECT_GE(sim.spikeEvents().capacity(), sim.spikeEvents().size());
    EXPECT_EQ(sim.probeTrace(0).size(), 200u);
    EXPECT_GE(sim.probeTrace(0).capacity(), 200u);
}

} // namespace
} // namespace flexon
