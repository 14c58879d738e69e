/**
 * @file
 * Tests for the event-driven LLIF engine: bit-exact equivalence with
 * the dense engine (membranes and spike trains), the update savings
 * on sparse activity, the eligibility restrictions (and the inputs
 * they must not exclude), and the lazy catch-up semantics (decay and
 * refractory).
 */

#include <gtest/gtest.h>

#include <string>

#include "features/model_table.hh"
#include "snn/event_driven.hh"
#include "snn/simulator.hh"

namespace flexon {
namespace {

/** A recurrent LLIF network with background stimulus. */
struct LlifSetup
{
    Network net;
    StimulusGenerator stim{1};
};

LlifSetup
llifNetwork(size_t neurons, double rate, uint64_t seed)
{
    LlifSetup s;
    NeuronParams p = defaultParams(ModelKind::LLIF);
    const size_t pop = s.net.addPopulation("llif", p, neurons);
    Rng rng(seed);
    // Suprathreshold-capable recurrent weights (CUB, LID: raw units).
    s.net.connectRandom(pop, pop, 0.05, 0.4, 1, 6, 0, rng);
    s.net.finalize();
    s.stim = StimulusGenerator(seed ^ 0xabcdULL);
    s.stim.addSource(StimulusSource::poisson(
        0, static_cast<uint32_t>(neurons), rate, 0.8f, 0));
    return s;
}

/** Session options pinning the event-driven engine. */
SimulatorOptions
eventOptions()
{
    SimulatorOptions opts;
    opts.engine = EngineKind::Event;
    return opts;
}

uint64_t
updates(Simulator &sim)
{
    return sim.metrics().counter("ev.updates").value();
}

uint64_t
denseUpdates(Simulator &sim)
{
    return sim.metrics().counter("ev.dense_updates").value();
}

/** Fraction of dense updates the engine skipped. */
double
savings(Simulator &sim)
{
    return 1.0 - static_cast<double>(updates(sim)) /
                     static_cast<double>(denseUpdates(sim));
}

TEST(EventDriven, SpikesMatchDenseSimulator)
{
    LlifSetup a = llifNetwork(100, 0.01, 5);
    LlifSetup b = llifNetwork(100, 0.01, 5);

    SimulatorOptions opts;
    Simulator dense(a.net, a.stim, opts);
    dense.run(3000);

    Simulator sparse(b.net, b.stim, eventOptions());
    sparse.run(3000);

    EXPECT_EQ(sparse.stats().spikes, dense.stats().spikes);
    for (uint32_t n = 0; n < 100; ++n) {
        ASSERT_EQ(sparse.spikeCounts()[n], dense.spikeCounts()[n])
            << "neuron " << n;
    }
}

TEST(EventDriven, MembranesMatchDenseAtEveryProbe)
{
    LlifSetup a = llifNetwork(40, 0.02, 9);
    LlifSetup b = llifNetwork(40, 0.02, 9);

    SimulatorOptions opts;
    Simulator dense(a.net, a.stim, opts);
    Simulator sparse(b.net, b.stim, eventOptions());

    // The catch-up replays the dense kernel's per-step subtraction,
    // so every membrane is bit-identical after every step.
    for (int step = 0; step < 2000; ++step) {
        dense.run(1);
        sparse.run(1);
        for (uint32_t n = 0; n < 40; ++n) {
            ASSERT_EQ(sparse.membrane(n), dense.backend().membrane(n))
                << "step " << step << " neuron " << n;
        }
    }
}

TEST(EventDriven, SavesUpdatesOnSparseActivity)
{
    LlifSetup s = llifNetwork(200, 0.002, 11);
    Simulator sim(s.net, s.stim, eventOptions());
    sim.run(5000);
    EXPECT_GT(sim.stats().spikes, 0u);
    // At 0.2 % input rate the engine should skip the vast majority
    // of dense updates (the Section IV-A event-driven win).
    EXPECT_GT(savings(sim), 0.8);
    EXPECT_EQ(denseUpdates(sim), 5000u * 200u);
}

TEST(EventDriven, DenseActivityApproachesDenseCost)
{
    LlifSetup s = llifNetwork(50, 0.9, 13);
    Simulator sim(s.net, s.stim, eventOptions());
    sim.run(500);
    EXPECT_LT(savings(sim), 0.35);
}

TEST(EventDriven, RejectsNonLlifPopulations)
{
    Network net;
    net.addPopulation("lif", defaultParams(ModelKind::LIF), 4);
    net.finalize();
    StimulusGenerator stim(1);
    EXPECT_DEATH(Simulator(net, stim, eventOptions()),
                 "requires LLIF");

    Network net2;
    NeuronParams rr = defaultParams(ModelKind::LLIF);
    rr.features.add(Feature::RR);
    rr.epsR = 0.1;
    rr.qR = -0.1;
    net2.addPopulation("llif_rr", rr, 4);
    net2.finalize();
    EXPECT_DEATH(Simulator(net2, stim, eventOptions()),
                 "does not support");
}

TEST(EventDriven, RequestOnIneligibleSetupDiesWithReason)
{
    // The event-driven engine computes in reference doubles over
    // stored rows. An explicit request on any other setup must name
    // what is wrong instead of silently running something else.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(20, 0.02, 3);

    SimulatorOptions flexon = eventOptions();
    flexon.backend = BackendKind::Flexon;
    EXPECT_DEATH(Simulator(s.net, s.stim, flexon),
                 "engine=event: .*flexon backend");

    SimulatorOptions continuous = eventOptions();
    continuous.mode = IntegrationMode::Continuous;
    continuous.solver = SolverKind::RKF45;
    EXPECT_DEATH(Simulator(s.net, s.stim, continuous),
                 "engine=event: continuous integration");

    // Connectivity is no longer a restriction: the engine delivers
    // from the session's provider, compressed rows included.
    SimulatorOptions dense;
    dense.recordSpikes = true;
    SimulatorOptions compressed = eventOptions();
    compressed.recordSpikes = true;
    compressed.connectivity = ConnectivityKind::Compressed;
    compressed.threads = 3;
    LlifSetup a = llifNetwork(100, 0.01, 5);
    Simulator expected(a.net, a.stim, dense);
    expected.run(1500);
    LlifSetup b = llifNetwork(100, 0.01, 5);
    Simulator event(b.net, b.stim, compressed);
    event.run(1500);
    ASSERT_GT(expected.stats().spikes, 0u);
    EXPECT_EQ(event.stats().synapseEvents,
              expected.stats().synapseEvents);
    ASSERT_EQ(event.spikeEvents().size(), expected.spikeEvents().size());
    for (size_t i = 0; i < expected.spikeEvents().size(); ++i) {
        EXPECT_EQ(event.spikeEvents()[i].step,
                  expected.spikeEvents()[i].step);
        EXPECT_EQ(event.spikeEvents()[i].neuron,
                  expected.spikeEvents()[i].neuron);
    }
}

TEST(EventDriven, RejectsNegativeLeakNamingThePopulation)
{
    // With v_leak < 0 a silent neuron climbs between the steps the
    // engine skips, and can cross threshold there; the catch-up only
    // decays toward rest, so the setup is refused.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Network net;
    NeuronParams p = defaultParams(ModelKind::LLIF);
    p.vLeak = -0.01;
    const size_t pop = net.addPopulation("a", p, 50);
    Rng rng(3);
    net.connectRandom(pop, pop, 0.05, 0.05, 1, 3, 0, rng);
    net.finalize();
    StimulusGenerator stim(3);
    stim.addSource(StimulusSource::poisson(0, 50, 0.002, 0.05f, 0));

    std::string why;
    EXPECT_FALSE(eventDrivenEligible(net, SimulatorOptions{}, &why));
    EXPECT_NE(why.find("population 'a'"), std::string::npos) << why;
    EXPECT_DEATH(Simulator(net, stim, eventOptions()),
                 "engine=event: population 'a' has a negative leak");
}

TEST(EventDriven, IgnoresSynapseTypesThePopulationLacks)
{
    // A one-type population receiving type-1 deliveries: the dense
    // kernel sums only the population's own types, and so must the
    // engine (summing all four, it fired 625 spikes on this network
    // where the dense engine fires 389).
    auto build = [] {
        LlifSetup s;
        NeuronParams p = defaultParams(ModelKind::LLIF);
        p.numSynapseTypes = 1;
        const size_t pop = s.net.addPopulation("a", p, 60);
        Rng rng(3);
        s.net.connectRandom(pop, pop, 0.1, 0.3, 1, 3, 1, rng);
        s.net.finalize();
        s.stim = StimulusGenerator(3);
        s.stim.addSource(StimulusSource::poisson(0, 60, 0.05, 0.6f, 0));
        return s;
    };
    LlifSetup a = build();
    LlifSetup b = build();
    SimulatorOptions opts;
    opts.recordSpikes = true;
    Simulator dense(a.net, a.stim, opts);
    dense.run(400);
    opts.engine = EngineKind::Event;
    Simulator event(b.net, b.stim, opts);
    event.run(400);

    ASSERT_GT(dense.stats().spikes, 0u);
    EXPECT_EQ(event.stats().spikes, dense.stats().spikes);
    EXPECT_EQ(event.spikeCounts(), dense.spikeCounts());
    for (uint32_t n = 0; n < 60; ++n)
        EXPECT_EQ(event.membrane(n), dense.membrane(n))
            << "neuron " << n;
}

TEST(EventDriven, ResetThenRerunIsSpikeForSpikeIdentical)
{
    LlifSetup s = llifNetwork(60, 0.02, 17);
    SimulatorOptions opts = eventOptions();
    opts.recordSpikes = true;
    opts.probes = {0, 9};
    Simulator sim(s.net, s.stim, opts);

    sim.run(800);
    const auto counts = sim.spikeCounts();
    const auto events = sim.spikeEvents();
    const auto trace0 = sim.probeTrace(0);
    const uint64_t performed = updates(sim);
    ASSERT_GT(sim.stats().spikes, 0u);

    sim.reset();
    EXPECT_EQ(sim.currentStep(), 0u);
    EXPECT_EQ(sim.stats().spikes, 0u);
    EXPECT_TRUE(sim.spikeEvents().empty());

    sim.run(800);
    EXPECT_EQ(sim.spikeCounts(), counts);
    ASSERT_EQ(sim.spikeEvents().size(), events.size());
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(sim.spikeEvents()[i].step, events[i].step);
        EXPECT_EQ(sim.spikeEvents()[i].neuron, events[i].neuron);
    }
    ASSERT_EQ(sim.probeTrace(0).size(), trace0.size());
    for (size_t t = 0; t < trace0.size(); ++t)
        EXPECT_EQ(sim.probeTrace(0)[t], trace0[t]) << "step " << t;
    EXPECT_EQ(updates(sim), performed);
}

TEST(EventDriven, RecordedEventsMatchDenseSimulator)
{
    LlifSetup a = llifNetwork(80, 0.015, 23);
    LlifSetup b = llifNetwork(80, 0.015, 23);

    SimulatorOptions denseOpts;
    denseOpts.recordSpikes = true;
    Simulator dense(a.net, a.stim, denseOpts);
    dense.run(1500);

    SimulatorOptions evOpts = eventOptions();
    evOpts.recordSpikes = true;
    Simulator sparse(b.net, b.stim, evOpts);
    sparse.run(1500);

    ASSERT_GT(dense.spikeEvents().size(), 0u);
    ASSERT_EQ(sparse.spikeEvents().size(), dense.spikeEvents().size());
    for (size_t i = 0; i < dense.spikeEvents().size(); ++i) {
        EXPECT_EQ(sparse.spikeEvents()[i].step,
                  dense.spikeEvents()[i].step);
        EXPECT_EQ(sparse.spikeEvents()[i].neuron,
                  dense.spikeEvents()[i].neuron);
    }
}

TEST(EventDriven, LazyRefractoryCountdownIsExact)
{
    // One neuron, driven by two pattern pulses closer together than
    // the refractory period: the second pulse must be swallowed.
    Network net;
    NeuronParams p = defaultParams(ModelKind::LLIF);
    p.arSteps = 50;
    net.addPopulation("n", p, 1);
    net.finalize();

    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 30, 1.5f, 0));

    Simulator sim(net, stim, eventOptions());
    sim.run(200); // pulses at 0, 30, 60, 90, 120, 150, 180
    // Pulse at t=0 fires; t=30 blocked (refractory until t=50);
    // t=60 fires; t=90 blocked; t=120 fires; t=150 blocked; t=180
    // fires -> 4 spikes.
    EXPECT_EQ(sim.stats().spikes, 4u);
}

} // namespace
} // namespace flexon
