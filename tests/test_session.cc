/**
 * @file
 * Tests for the SimulationSession checkpoint/restore layer: a run of
 * N steps must be bit-identical — spike counts, spike events, probe
 * traces, final membrane state, registry counters — to running k
 * steps,
 * saving a checkpoint, restoring it into a freshly constructed
 * session, and running the remaining N - k steps. Exercised for
 * every backend at several thread counts, with STDP mutating weights
 * mid-run, with a NaN membrane in a probe trace, and for
 * restore-onto-a-used-session semantics; corrupt checkpoints are
 * rejected with a diagnostic. Also covered: attached plasticity
 * rules, the router's use of the session's provider, the crash
 * dump's copy of the session metrics, and the fired sweep on
 * degenerate shapes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/health.hh"
#include "features/model_table.hh"
#include "nets/table1.hh"
#include "snn/plasticity.hh"
#include "snn/simulator.hh"
#include "snn/stdp.hh"

namespace flexon {
namespace {

struct RunResult
{
    std::vector<uint64_t> spikeCounts;
    std::vector<SpikeEvent> events;
    std::vector<std::vector<double>> traces;
    std::vector<double> membranes;
    uint64_t steps = 0;
    uint64_t spikes = 0;
    uint64_t synapseEvents = 0;
    std::vector<std::pair<std::string, uint64_t>> counters;
};

/** Registry counters a dense restore must continue exactly. */
const std::vector<std::string> kDenseCounters = {
    "sim.steps",
    "sim.spikes",
    "sim.synapse_events",
    "snn.router.buckets_visited",
};

RunResult
capture(const SimulationSession &sim, size_t numProbes,
        const std::vector<std::string> &counterNames = {})
{
    RunResult r;
    r.spikeCounts = sim.spikeCounts();
    r.events = sim.spikeEvents();
    for (size_t p = 0; p < numProbes; ++p)
        r.traces.push_back(sim.probeTrace(p));
    for (uint32_t n = 0; n < sim.network().numNeurons(); ++n)
        r.membranes.push_back(sim.membrane(n));
    const PhaseStats &st = sim.stats();
    r.steps = st.steps;
    r.spikes = st.spikes;
    r.synapseEvents = st.synapseEvents;
    const auto values = sim.metrics().snapshot().counters;
    for (const std::string &name : counterNames) {
        const auto it = std::find_if(
            values.begin(), values.end(),
            [&](const auto &entry) { return entry.first == name; });
        if (it == values.end())
            ADD_FAILURE() << "counter " << name << " not registered";
        else
            r.counters.push_back(*it);
    }
    return r;
}

void
expectIdentical(const RunResult &full, const RunResult &restored)
{
    EXPECT_EQ(full.steps, restored.steps);
    EXPECT_EQ(full.spikes, restored.spikes);
    EXPECT_EQ(full.synapseEvents, restored.synapseEvents);
    EXPECT_EQ(full.counters, restored.counters);
    EXPECT_EQ(full.spikeCounts, restored.spikeCounts);

    ASSERT_EQ(full.events.size(), restored.events.size());
    for (size_t i = 0; i < full.events.size(); ++i) {
        EXPECT_EQ(full.events[i].step, restored.events[i].step);
        EXPECT_EQ(full.events[i].neuron, restored.events[i].neuron);
    }

    ASSERT_EQ(full.traces.size(), restored.traces.size());
    for (size_t p = 0; p < full.traces.size(); ++p) {
        ASSERT_EQ(full.traces[p].size(), restored.traces[p].size());
        for (size_t t = 0; t < full.traces[p].size(); ++t) {
            // Bit-identical, not just "close".
            EXPECT_EQ(full.traces[p][t], restored.traces[p][t])
                << "probe " << p << " step " << t;
        }
    }

    ASSERT_EQ(full.membranes.size(), restored.membranes.size());
    for (size_t n = 0; n < full.membranes.size(); ++n) {
        EXPECT_EQ(full.membranes[n], restored.membranes[n])
            << "neuron " << n;
    }
}

SimulatorOptions
denseOptions(BackendKind backend, size_t threads,
             ConnectivityKind connectivity = ConnectivityKind::Materialized)
{
    SimulatorOptions opts;
    opts.backend = backend;
    opts.threads = threads;
    opts.connectivity = connectivity;
    opts.recordSpikes = true;
    opts.probes = {0, 7, 42};
    return opts;
}

using DenseRestartParam = std::tuple<BackendKind, ConnectivityKind, size_t>;

class DenseRestart
    : public ::testing::TestWithParam<DenseRestartParam>
{
};

TEST_P(DenseRestart, SplitRunMatchesFullRunBitForBit)
{
    const auto [backend, connectivity, threads] = GetParam();
    const uint64_t total = 160, split = 70;
    const SimulatorOptions opts =
        denseOptions(backend, threads, connectivity);
    // Procedural rows are generated from the network's spec.
    const Wiring wiring = connectivity == ConnectivityKind::Procedural
                              ? Wiring::Procedural
                              : Wiring::Staged;

    BenchmarkInstance a = buildBenchmark(findBenchmark("Vogels-Abbott"),
                                         20.0, 5, wiring);
    Simulator full(a.network, a.stimulus, opts);
    full.run(total);

    BenchmarkInstance b = buildBenchmark(findBenchmark("Vogels-Abbott"),
                                         20.0, 5, wiring);
    std::stringstream snapshot;
    {
        Simulator first(b.network, b.stimulus, opts);
        first.run(split);
        first.saveCheckpoint(snapshot);
        EXPECT_EQ(first.checkpointSaves(), 1u);
    } // the first session object is gone: restore must be
      // self-contained

    Simulator second(b.network, b.stimulus, opts);
    second.loadCheckpoint(snapshot);
    EXPECT_TRUE(second.restored());
    EXPECT_EQ(second.restoredStep(), split);
    EXPECT_EQ(second.currentStep(), split);
    second.run(total - split);

    expectIdentical(capture(full, opts.probes.size(), kDenseCounters),
                    capture(second, opts.probes.size(),
                            kDenseCounters));
    EXPECT_GT(full.stats().spikes, 0u) << "network stayed silent";
}

std::string
denseRestartName(const ::testing::TestParamInfo<DenseRestartParam> &info)
{
    const auto [backend, connectivity, threads] = info.param;
    std::string name;
    switch (backend) {
      case BackendKind::Reference: name = "Reference"; break;
      case BackendKind::Flexon: name = "Flexon"; break;
      case BackendKind::Folded: name = "Folded"; break;
      default: name = "Unknown"; break;
    }
    switch (connectivity) {
      case ConnectivityKind::Compressed: name += "Compressed"; break;
      case ConnectivityKind::Procedural: name += "Procedural"; break;
      default: break;
    }
    return name + "T" + std::to_string(threads);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndThreads, DenseRestart,
    ::testing::Combine(
        ::testing::Values(BackendKind::Reference, BackendKind::Flexon,
                          BackendKind::Folded),
        ::testing::Values(ConnectivityKind::Materialized),
        ::testing::Values(size_t{1}, size_t{3}, size_t{4})),
    denseRestartName);

// The router block holds only the ring and its counters, whatever
// the provider; the restore must continue on every provider.
INSTANTIATE_TEST_SUITE_P(
    ProvidersAndThreads, DenseRestart,
    ::testing::Combine(
        ::testing::Values(BackendKind::Reference),
        ::testing::Values(ConnectivityKind::Compressed,
                          ConnectivityKind::Procedural),
        ::testing::Values(size_t{1}, size_t{3}, size_t{4})),
    denseRestartName);

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
    s.net.connectRandom(pop, pop, 0.05, 0.4, 1, 6, 0, rng);
    s.net.finalize();
    s.stim = StimulusGenerator(seed ^ 0xabcdULL);
    s.stim.addSource(StimulusSource::poisson(
        0, static_cast<uint32_t>(neurons), rate, 0.8f, 0));
    return s;
}

TEST(SessionCheckpoint, RestoreOntoUsedSessionEqualsFreshRestore)
{
    const uint64_t total = 150, split = 60;
    const SimulatorOptions opts =
        denseOptions(BackendKind::Flexon, 1);

    BenchmarkInstance a =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 5);
    Simulator full(a.network, a.stimulus, opts);
    full.run(total);

    BenchmarkInstance b =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 5);
    std::stringstream snapshot;
    Simulator first(b.network, b.stimulus, opts);
    first.run(split);
    first.saveCheckpoint(snapshot);

    // A session that has already simulated unrelated steps must be
    // indistinguishable from a fresh object after loadCheckpoint.
    Simulator second(b.network, b.stimulus, opts);
    second.run(37);
    second.loadCheckpoint(snapshot);
    second.run(total - split);

    expectIdentical(capture(full, opts.probes.size(), kDenseCounters),
                    capture(second, opts.probes.size(),
                            kDenseCounters));
}

/** A trace's bit patterns, with every NaN mapped to one pattern. */
std::vector<uint64_t>
traceBits(const std::vector<double> &trace)
{
    std::vector<uint64_t> bits;
    for (const double v : trace)
        bits.push_back(std::isnan(v) ? ~uint64_t{0}
                                     : std::bit_cast<uint64_t>(v));
    return bits;
}

TEST(SessionCheckpoint, NanProbeTraceRestoresBitForBit)
{
    // A probed neuron whose membrane went NaN (the default Report
    // policy counts it and runs on) writes `nan` into its probe trace;
    // the restore must read it back. LIF keeps a NaN membrane NaN,
    // where LLIF's leak floor would clear it.
    const uint64_t total = 120, poison = 30, split = 70;
    SimulatorOptions opts;
    opts.recordSpikes = true;
    opts.probes = {0, 5};

    Network net;
    const size_t pop =
        net.addPopulation("lif", defaultParams(ModelKind::LIF), 30);
    Rng rng(17);
    net.connectRandom(pop, pop, 0.1, 20.0f, 1, 6, 0, rng);
    net.finalize();
    StimulusGenerator stim(17);
    stim.addSource(StimulusSource::poisson(0, 30, 0.1, 150.0f, 0));

    Simulator full(net, stim, opts);
    full.run(poison);
    ASSERT_TRUE(full.debugPoisonMembrane(0));
    full.run(total - poison);
    ASSERT_TRUE(std::isnan(full.probeTrace(0).back()));
    ASSERT_GT(full.stats().spikes, 0u) << "network stayed silent";

    std::stringstream snapshot;
    {
        Simulator first(net, stim, opts);
        first.run(poison);
        ASSERT_TRUE(first.debugPoisonMembrane(0));
        first.run(split - poison);
        first.saveCheckpoint(snapshot);
    }
    Simulator second(net, stim, opts);
    second.loadCheckpoint(snapshot);
    second.run(total - split);

    for (size_t p = 0; p < opts.probes.size(); ++p) {
        EXPECT_EQ(traceBits(full.probeTrace(p)),
                  traceBits(second.probeTrace(p)))
            << "probe " << p;
    }
    EXPECT_EQ(full.spikeCounts(), second.spikeCounts());
}

TEST(SessionCheckpoint, StdpWeightsRehydrateAndLearningContinues)
{
    const uint64_t total = 400, split = 170;

    // Uninterrupted baseline: dense simulator + STDP, stepped
    // manually so the plasticity hook sees every step's fired flags.
    LlifSetup a = llifNetwork(60, 0.05, 21);
    SimulatorOptions opts;
    opts.probes = {0, 5};
    opts.recordSpikes = true;
    Simulator full(a.net, a.stim, opts);
    StdpEngine fullStdp(a.net, {});
    for (uint64_t t = 0; t < total; ++t) {
        full.stepOnce();
        fullStdp.onStep(full.lastFired());
    }

    // Split run over an identically built network.
    LlifSetup b = llifNetwork(60, 0.05, 21);
    std::stringstream snapshot;
    {
        Simulator first(b.net, b.stim, opts);
        StdpEngine firstStdp(b.net, {});
        for (uint64_t t = 0; t < split; ++t) {
            first.stepOnce();
            firstStdp.onStep(first.lastFired());
        }
        first.saveCheckpoint(snapshot);
        firstStdp.saveState(snapshot);
    }

    // Fresh objects. The network still holds the split-time weights
    // (they live in the Network), but loadCheckpoint rewrites them
    // from the snapshot anyway — the restore does not depend on the
    // shared Network's incidental state.
    Simulator second(b.net, b.stim, opts);
    StdpEngine secondStdp(b.net, {});
    second.loadCheckpoint(snapshot, &b.net);
    secondStdp.loadState(snapshot);
    for (uint64_t t = split; t < total; ++t) {
        second.stepOnce();
        secondStdp.onStep(second.lastFired());
    }

    expectIdentical(capture(full, opts.probes.size(), kDenseCounters),
                    capture(second, opts.probes.size(),
                            kDenseCounters));

    // The learned weights themselves must match bit for bit.
    ASSERT_GT(fullStdp.plasticSynapses(), 0u);
    EXPECT_EQ(fullStdp.meanPlasticWeight(),
              secondStdp.meanPlasticWeight());
    for (uint64_t i = 0; i < a.net.numSynapses(); ++i) {
        EXPECT_EQ(std::as_const(a.net).synapseAt(i).weight,
                  std::as_const(b.net).synapseAt(i).weight)
            << "synapse " << i;
    }
}

TEST(SessionCheckpoint, StdpCheckpointNeedsTheMutableNetwork)
{
    LlifSetup s = llifNetwork(40, 0.05, 3);
    SimulatorOptions opts;
    Simulator sim(s.net, s.stim, opts);
    StdpEngine stdp(s.net, {});
    for (uint64_t t = 0; t < 50; ++t) {
        sim.stepOnce();
        stdp.onStep(sim.lastFired());
    }
    std::stringstream snapshot;
    sim.saveCheckpoint(snapshot);

    Simulator second(s.net, s.stim, opts);
    EXPECT_DEATH(second.loadCheckpoint(snapshot),
                 "mutated synapse weights");
}

TEST(SessionCheckpoint, RejectsNeuronCountMismatch)
{
    LlifSetup a = llifNetwork(30, 0.02, 9);
    Simulator dense(a.net, a.stim, SimulatorOptions{});
    dense.run(10);
    std::stringstream snapshot;
    dense.saveCheckpoint(snapshot);

    LlifSetup b = llifNetwork(31, 0.02, 9);
    Simulator other(b.net, b.stim, SimulatorOptions{});
    EXPECT_DEATH(other.loadCheckpoint(snapshot), "neurons");
}

// ---- Corrupt checkpoints -----------------------------------------
// Each death test edits one field of a checkpoint it saved itself.
// "threadsafe" re-executes the binary for the death assertion, since
// the pool's worker threads may be alive.

/** A saved checkpoint as lines, editable by line prefix. */
struct SavedLines
{
    std::vector<std::string> lines;

    explicit SavedLines(const SimulationSession &sim)
    {
        std::stringstream os;
        sim.saveCheckpoint(os);
        for (std::string line; std::getline(os, line);)
            lines.push_back(line);
    }

    /** The `nth` line (from 0) that starts with `prefix`. */
    std::string &
    line(const std::string &prefix, size_t nth = 0)
    {
        for (std::string &l : lines) {
            if (l.rfind(prefix, 0) == 0 && nth-- == 0)
                return l;
        }
        ADD_FAILURE() << "checkpoint lacks a '" << prefix << "' line";
        return lines.front();
    }

    std::string
    text() const
    {
        std::string out;
        for (const std::string &l : lines)
            out += l + '\n';
        return out;
    }
};

/** Run `sim` for 40 steps and return its checkpoint. */
SavedLines
savedAfterRun(SimulationSession &sim)
{
    sim.run(40);
    return SavedLines(sim);
}

TEST(StimulusCheckpoint, RejectsOuStateShorterThanTheSource)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(30, 0.02, 9);
    s.stim.addSource(StimulusSource::ou(0, 20, 0.1, 0.05, 10.0, 0));
    Simulator sim(s.net, s.stim, SimulatorOptions{});
    SavedLines cp = savedAfterRun(sim);
    // Sources save in order: the Poisson source, then the OU one.
    cp.line("source ", 1) = "source 1 0.5";
    Simulator fresh(s.net, s.stim, SimulatorOptions{});
    std::istringstream is(cp.text());
    EXPECT_DEATH(fresh.loadCheckpoint(is),
                 "has 1 OU values, this source keeps 20");
}

TEST(StimulusCheckpoint, RejectsOuStateOnAPoissonSource)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(30, 0.02, 9);
    Simulator sim(s.net, s.stim, SimulatorOptions{});
    SavedLines cp = savedAfterRun(sim);
    cp.line("source ") = "source 1 0.5";
    Simulator fresh(s.net, s.stim, SimulatorOptions{});
    std::istringstream is(cp.text());
    EXPECT_DEATH(fresh.loadCheckpoint(is),
                 "has 1 OU values, this source keeps 0");
}

/** Restore `text` into a fresh session over `s` with `opts`. */
void
restoreText(const LlifSetup &s, const SimulatorOptions &opts,
            const std::string &text)
{
    Simulator fresh(s.net, s.stim, opts);
    std::istringstream is(text);
    fresh.loadCheckpoint(is);
}

TEST(SessionCheckpoint, RejectsEventDrivenSnapshot)
{
    // Snapshots of the event-driven engine older builds had carry
    // `event-driven` in the header; the restore names it.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(30, 0.02, 9);
    Simulator sim(s.net, s.stim, SimulatorOptions{});
    SavedLines cp = savedAfterRun(sim);
    EXPECT_EQ(cp.line("flexon-checkpoint "), "flexon-checkpoint v5 dense");
    cp.line("flexon-checkpoint ") = "flexon-checkpoint v4 event-driven";
    EXPECT_EXIT(restoreText(s, SimulatorOptions{}, cp.text()),
                ::testing::ExitedWithCode(1),
                "checkpoint was written by a 'event-driven' engine");
}

TEST(SessionCheckpoint, RejectsNonNumericVersionWithoutAborting)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(30, 0.02, 9);
    Simulator sim(s.net, s.stim, SimulatorOptions{});
    SavedLines cp = savedAfterRun(sim);
    cp.line("flexon-checkpoint ") = "flexon-checkpoint vX dense";
    EXPECT_EXIT(restoreText(s, SimulatorOptions{}, cp.text()),
                ::testing::ExitedWithCode(1),
                "malformed checkpoint version field 'vX'");
}

TEST(SessionCheckpoint, BoundsRecordedCountsByTheRestoredSteps)
{
    // Counts read from the file size allocations: each must fit what
    // 40 steps of 30 neurons could have recorded, or the restore
    // fails with a diagnostic instead of std::bad_alloc.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(30, 0.02, 9);
    SimulatorOptions opts;
    opts.recordSpikes = true;
    opts.probes = {0, 3, 11};
    Simulator sim(s.net, s.stim, opts);
    const SavedLines saved = savedAfterRun(sim);

    SavedLines events = saved;
    events.line("spike_events ") = "spike_events 99999999999999";
    EXPECT_EXIT(restoreText(s, opts, events.text()),
                ::testing::ExitedWithCode(1),
                "99999999999999 spike events, more than 40 steps of 30 "
                "neurons can fire");

    SavedLines trace = saved;
    trace.line("trace ") = "trace 99999999999999";
    EXPECT_EXIT(restoreText(s, opts, trace.text()),
                ::testing::ExitedWithCode(1),
                "probe trace has 99999999999999 samples after 40 steps");
}

/** Counts the steps it observes. */
class CountingRule : public PlasticityRule
{
  public:
    const char *kind() const override { return "count"; }
    void onStep(const std::vector<uint8_t> &) override { ++steps; }
    void saveState(std::ostream &os) const override
    {
        os << steps << '\n';
    }
    void loadState(std::istream &is) override { is >> steps; }

    uint64_t steps = 0;
};

TEST(SessionPlasticity, AttachedRuleSeesEveryStep)
{
    LlifSetup s = llifNetwork(90, 0.05, 13);
    Simulator sim(s.net, s.stim, SimulatorOptions{});
    CountingRule rule;
    sim.attachPlasticityRule(&rule);
    sim.run(640);
    EXPECT_EQ(rule.steps, 640u);
}

TEST(SessionCrashDump, CarriesTheSessionMetrics)
{
    LlifSetup s = llifNetwork(90, 0.05, 13);
    Simulator sim(s.net, s.stim, SimulatorOptions{});
    health::setCrashDumpRegistry(&sim.metrics());
    sim.run(640);

    const std::string path = ::testing::TempDir() + "session-dump.json";
    health::setCrashDumpPath(path);
    ASSERT_TRUE(health::writeCrashDump("test"));
    health::setCrashDumpPath("flexon-crash-dump.json");
    health::clearCrashDumpRegistry(&sim.metrics());
    std::ifstream is(path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string dump = buffer.str();
    EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
    EXPECT_NE(dump.find("\"sim.steps\": 640"), std::string::npos);
    EXPECT_NE(dump.find("\"snn.router.buckets_visited\""),
              std::string::npos);
}

TEST(SessionConnectivity, RouterDeliversFromTheSessionsProvider)
{
    // The session builds its connectivity provider once and its
    // router borrows it, across a run and a reset.
    SimulatorOptions opts;
    opts.threads = 3;
    LlifSetup s = llifNetwork(90, 0.05, 13);
    Simulator sim(s.net, s.stim, opts);
    const ConnectivityProvider *const provider = &sim.connectivity();
    EXPECT_EQ(provider->shardCount(), 3u);
    EXPECT_EQ(&sim.router().provider(), provider);
    sim.run(300);
    sim.reset();
    sim.run(300);
    EXPECT_EQ(&sim.connectivity(), provider);
    EXPECT_EQ(&sim.router().provider(), provider);
}

TEST(SessionSweep, EventsAndCountsMatchTheFlagsOnEveryShape)
{
    // The fired sweep reads eight flags per word and the last
    // numNeurons % 8 one by one: sizes below, at and around a word,
    // with no neuron, every neuron and a random mix firing. A LIF
    // neuron fires in the step a 150 input arrives (CUB, epsilon_m).
    enum class Drive { None, All, Mix };
    for (const uint32_t neurons : {1u, 7u, 8u, 9u, 65u}) {
        for (const Drive drive : {Drive::None, Drive::All, Drive::Mix}) {
            Network net;
            net.addPopulation("pop", defaultParams(ModelKind::LIF),
                              neurons);
            net.finalize();
            StimulusGenerator stim(neurons);
            if (drive == Drive::All) {
                stim.addSource(
                    StimulusSource::pattern(0, neurons, 1, 150.0f, 0));
            } else if (drive == Drive::Mix) {
                stim.addSource(
                    StimulusSource::poisson(0, neurons, 0.3, 150.0f, 0));
            }
            SimulatorOptions opts;
            opts.recordSpikes = true;
            Simulator sim(net, stim, opts);
            std::vector<uint64_t> counts(neurons, 0);
            uint64_t fired = 0;
            for (uint64_t t = 0; t < 40; ++t) {
                const size_t before = sim.spikeEvents().size();
                sim.stepOnce();
                const std::vector<uint8_t> &flags = sim.lastFired();
                ASSERT_EQ(flags.size(), neurons);
                std::vector<uint32_t> expected;
                for (uint32_t n = 0; n < neurons; ++n) {
                    if (flags[n] != 0) {
                        expected.push_back(n);
                        ++counts[n];
                    }
                }
                std::vector<uint32_t> events;
                for (size_t i = before; i < sim.spikeEvents().size(); ++i) {
                    EXPECT_EQ(sim.spikeEvents()[i].step, t);
                    events.push_back(sim.spikeEvents()[i].neuron);
                }
                ASSERT_EQ(events, expected)
                    << neurons << " neurons, drive "
                    << static_cast<int>(drive) << ", step " << t;
                ASSERT_EQ(sim.spikeCounts(), counts) << t;
                if (drive == Drive::All) {
                    ASSERT_EQ(expected.size(), neurons) << t;
                }
                fired += expected.size();
            }
            if (drive == Drive::None) {
                EXPECT_EQ(fired, 0u);
            }
            if (drive == Drive::Mix) {
                EXPECT_GT(fired, 0u);
                EXPECT_LT(fired, 40u * neurons);
            }
        }
    }
}

TEST(SessionCheckpoint, ReportCarriesCheckpointSection)
{
    LlifSetup s = llifNetwork(20, 0.02, 4);
    Simulator sim(s.net, s.stim, SimulatorOptions{});
    sim.setCheckpointCadence(25);
    sim.run(50);
    std::stringstream snapshot;
    sim.saveCheckpoint(snapshot);
    sim.saveCheckpoint(snapshot);

    const std::string path = ::testing::TempDir() + "report.json";
    ASSERT_TRUE(sim.writeRunReport(path));
    std::ifstream is(path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string json = buffer.str();
    EXPECT_NE(json.find("\"checkpoint\""), std::string::npos);
    EXPECT_NE(json.find("\"every\": 25"), std::string::npos);
    EXPECT_NE(json.find("\"saves\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"restored\": false"), std::string::npos);
}

} // namespace
} // namespace flexon
