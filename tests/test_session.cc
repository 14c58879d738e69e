/**
 * @file
 * Tests for the SimulationSession checkpoint/restore layer: a run of
 * N steps must be bit-identical — spike counts, spike events, probe
 * traces, final membrane state, registry counters — to running k
 * steps,
 * saving a checkpoint, restoring it into a freshly constructed
 * session, and running the remaining N - k steps. Exercised for
 * every dense backend at several thread counts, for the
 * event-driven engine, with STDP mutating weights mid-run, and for
 * restore-onto-a-used-session semantics. The auto-engine suite checks
 * that a switch inside the one session keeps everything around the
 * engine running: spikes, plasticity, metrics and checkpoints.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/health.hh"
#include "features/model_table.hh"
#include "forced_switch.hh"
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
    "snn.router.dense_clears",
    "snn.router.sparse_clears",
    "snn.router.cells_cleared",
    "snn.router.shards_skipped",
    "snn.router.buckets_visited",
};

/** Registry counters an event-engine restore must continue. */
const std::vector<std::string> kEventCounters = {
    "sim.steps",  "sim.spikes",       "sim.synapse_events",
    "ev.updates", "ev.dense_updates",
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
denseOptions(BackendKind backend, size_t threads)
{
    SimulatorOptions opts;
    opts.backend = backend;
    opts.threads = threads;
    opts.recordSpikes = true;
    opts.probes = {0, 7, 42};
    return opts;
}

using DenseRestartParam = std::tuple<BackendKind, size_t>;

class DenseRestart
    : public ::testing::TestWithParam<DenseRestartParam>
{
};

TEST_P(DenseRestart, SplitRunMatchesFullRunBitForBit)
{
    const auto [backend, threads] = GetParam();
    const uint64_t total = 160, split = 70;
    const SimulatorOptions opts = denseOptions(backend, threads);

    BenchmarkInstance a =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 5);
    Simulator full(a.network, a.stimulus, opts);
    full.run(total);

    BenchmarkInstance b =
        buildBenchmark(findBenchmark("Vogels-Abbott"), 20.0, 5);
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

INSTANTIATE_TEST_SUITE_P(
    BackendsAndThreads, DenseRestart,
    ::testing::Combine(
        ::testing::Values(BackendKind::Reference, BackendKind::Flexon,
                          BackendKind::Folded),
        ::testing::Values(size_t{1}, size_t{3}, size_t{4})),
    [](const ::testing::TestParamInfo<DenseRestartParam> &info) {
        const BackendKind backend = std::get<0>(info.param);
        const size_t threads = std::get<1>(info.param);
        std::string name;
        switch (backend) {
          case BackendKind::Reference: name = "Reference"; break;
          case BackendKind::Flexon: name = "Flexon"; break;
          case BackendKind::Folded: name = "Folded"; break;
          default: name = "Unknown"; break;
        }
        return name + "T" + std::to_string(threads);
    });

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

SimulatorOptions
evOptions()
{
    SimulatorOptions opts;
    opts.engine = EngineKind::Event;
    opts.recordSpikes = true;
    opts.probes = {0, 3, 11};
    return opts;
}

TEST(EventDrivenRestart, SplitRunMatchesFullRunBitForBit)
{
    const uint64_t total = 1200, split = 500;
    const SimulatorOptions opts = evOptions();

    LlifSetup a = llifNetwork(80, 0.02, 7);
    Simulator full(a.net, a.stim, opts);
    full.run(total);

    LlifSetup b = llifNetwork(80, 0.02, 7);
    std::stringstream snapshot;
    {
        Simulator first(b.net, b.stim, opts);
        first.run(split);
        first.saveCheckpoint(snapshot);
    }

    Simulator second(b.net, b.stim, opts);
    second.loadCheckpoint(snapshot);
    EXPECT_EQ(second.restoredStep(), split);
    second.run(total - split);

    // The update counters continue across the restore too (they
    // are part of the checkpoint).
    expectIdentical(capture(full, opts.probes.size(), kEventCounters),
                    capture(second, opts.probes.size(),
                            kEventCounters));
    EXPECT_GT(full.stats().spikes, 0u);
}

TEST(EventDrivenRestart, ShardedProviderSplitRunMatchesFullRun)
{
    // Over a 3-shard compressed provider the engine lists pending
    // records shard by shard, so its checkpoint text differs from a
    // 1-shard run's; what must hold is that a split run equals the
    // full run.
    const uint64_t total = 1200, split = 500;
    SimulatorOptions opts = evOptions();
    opts.threads = 3;
    opts.connectivity = ConnectivityKind::Compressed;

    LlifSetup a = llifNetwork(80, 0.02, 7);
    Simulator full(a.net, a.stim, opts);
    ASSERT_EQ(full.connectivity().shardCount(), 3u);
    full.run(total);

    LlifSetup b = llifNetwork(80, 0.02, 7);
    std::stringstream snapshot;
    {
        Simulator first(b.net, b.stim, opts);
        first.run(split);
        first.saveCheckpoint(snapshot);
    }
    Simulator second(b.net, b.stim, opts);
    second.loadCheckpoint(snapshot);
    second.run(total - split);

    expectIdentical(capture(full, opts.probes.size(), kEventCounters),
                    capture(second, opts.probes.size(),
                            kEventCounters));
    EXPECT_GT(full.stats().spikes, 0u);
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

TEST(SessionCheckpoint, RejectsEngineKindMismatch)
{
    LlifSetup a = llifNetwork(30, 0.02, 9);
    Simulator dense(a.net, a.stim, SimulatorOptions{});
    dense.run(20);
    std::stringstream snapshot;
    dense.saveCheckpoint(snapshot);

    LlifSetup b = llifNetwork(30, 0.02, 9);
    Simulator sparse(b.net, b.stim, evOptions());
    EXPECT_DEATH(sparse.loadCheckpoint(snapshot),
                 "written by a 'dense' engine");
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

TEST(EventDrivenCheckpoint, RejectsPendingCellsOutsideTheNetwork)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(30, 0.02, 9);
    Simulator sim(s.net, s.stim, evOptions());
    const SavedLines saved = savedAfterRun(sim);
    const std::string cells =
        std::to_string(s.net.numNeurons() * maxSynapseTypes);
    for (const char *block : {"slot ", "carry "}) {
        SCOPED_TRACE(block);
        SavedLines cp = saved;
        cp.line(block) = block + ("1 " + cells + " 0.5");
        Simulator fresh(s.net, s.stim, evOptions());
        std::istringstream is(cp.text());
        EXPECT_DEATH(fresh.loadCheckpoint(is),
                     "event-driven cell " + cells + " is outside");
    }
}

TEST(EventDrivenCheckpoint, RejectsLastUpdateAfterTheRestoredStep)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(30, 0.02, 9);
    Simulator sim(s.net, s.stim, evOptions());
    SavedLines cp = savedAfterRun(sim);
    // `states` holds v, refractory, lastUpdate per neuron: move the
    // first neuron's lastUpdate one step past the restored step 40.
    std::istringstream states(cp.line("states "));
    std::string tag, v, refractory, lastUpdate;
    states >> tag >> v >> refractory >> lastUpdate;
    std::string rest;
    std::getline(states, rest);
    cp.line("states ") = tag + ' ' + v + ' ' + refractory + " 41" + rest;
    Simulator fresh(s.net, s.stim, evOptions());
    std::istringstream is(cp.text());
    EXPECT_DEATH(fresh.loadCheckpoint(is),
                 "updated at step 41, after the restored step 40");
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
    SimulatorOptions opts = evOptions();
    opts.engine = EngineKind::Dense;
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

TEST(EventDrivenCheckpoint, BoundsPendingCountsByTheNetwork)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    LlifSetup s = llifNetwork(30, 0.02, 9);
    Simulator sim(s.net, s.stim, evOptions());
    const SavedLines saved = savedAfterRun(sim);

    SavedLines slot = saved;
    slot.line("slot ") = "slot 99999999999999";
    EXPECT_EXIT(restoreText(s, evOptions(), slot.text()),
                ::testing::ExitedWithCode(1),
                "slot holds 99999999999999 records, more than the "
                "[0-9]+ this network can pend");

    SavedLines carry = saved;
    carry.line("carry ") = "carry 99999999999999";
    EXPECT_EXIT(restoreText(s, evOptions(), carry.text()),
                ::testing::ExitedWithCode(1),
                "carry holds 99999999999999 values, more than the 120 "
                "cells");
}

// ---- Rate-adaptive engine switch --------------------------------

/** Auto-engine options with spike recording and three probes. */
SimulatorOptions
autoOptions()
{
    SimulatorOptions opts;
    opts.engine = EngineKind::Auto;
    opts.recordSpikes = true;
    opts.probes = {0, 3, 11};
    return opts;
}

/** Steps that take a forced-switch run past two decisions. */
constexpr uint64_t kSwitchRunSteps = 640;
static_assert(kSwitchRunSteps > 2 * plan::kDecisionWindow);

TEST(AutoEngine, SwitchingRunMatchesPinnedEnginesBitForBit)
{
    // Every neuron is probed after every step: a silent neuron's
    // catch-up on the event engine, and the membranes it hands to
    // dense at the switch, must equal the dense kernel's per-step
    // leak to the bit.
    const ForcedSwitchCalibration forced;
    SimulatorOptions opts = autoOptions();
    opts.probes.clear();
    for (uint32_t n = 0; n < 90; ++n)
        opts.probes.push_back(n);

    SimulatorOptions denseOpts = opts;
    denseOpts.engine = EngineKind::Dense;
    LlifSetup a = llifNetwork(90, 0.05, 13);
    Simulator dense(a.net, a.stim, denseOpts);
    dense.run(kSwitchRunSteps);
    ASSERT_GT(dense.stats().spikes, 0u) << "network stayed silent";

    LlifSetup b = llifNetwork(90, 0.05, 13);
    Simulator autoSim(b.net, b.stim, opts);
    ASSERT_TRUE(autoSim.adaptive());
    autoSim.run(kSwitchRunSteps);
    EXPECT_GE(autoSim.switches(), 1u)
        << "forced crossover never triggered a switch";
    EXPECT_FALSE(autoSim.eventActive());
    EXPECT_EQ(autoSim.metrics().counter("sim.engine_switches").value(),
              autoSim.switches());

    expectIdentical(capture(dense, opts.probes.size()),
                    capture(autoSim, opts.probes.size()));
}

TEST(AutoEngine, CheckpointAcrossSwitchRestoresBitForBit)
{
    const ForcedSwitchCalibration forced;
    const uint64_t split = plan::kDecisionWindow + 64;
    const SimulatorOptions opts = autoOptions();

    // Uninterrupted adaptive baseline.
    LlifSetup a = llifNetwork(90, 0.05, 13);
    Simulator full(a.net, a.stim, opts);
    full.run(kSwitchRunSteps);
    ASSERT_GE(full.switches(), 1u);

    // Same run split at a point past the switch; the snapshot is
    // written by whichever engine is live at the split.
    const std::string path =
        ::testing::TempDir() + "auto-switch.fxc";
    LlifSetup b = llifNetwork(90, 0.05, 13);
    {
        Simulator first(b.net, b.stim, opts);
        first.run(split);
        ASSERT_GE(first.switches(), 1u)
            << "split point landed before the switch";
        EXPECT_FALSE(first.eventActive());
        ASSERT_TRUE(first.saveCheckpointFile(path));
    } // restore below must be self-contained

    // A fresh adaptive session starts on the event engine; the
    // restore must switch to the engine the checkpoint was written by
    // and then continue bit-exactly, including later decisions (the
    // EWMA estimator travels in the snapshot).
    Simulator second(b.net, b.stim, opts);
    EXPECT_TRUE(second.eventActive());
    second.loadCheckpointFile(path);
    EXPECT_FALSE(second.eventActive());
    EXPECT_EQ(second.restoredStep(), split);
    second.run(kSwitchRunSteps - split);

    expectIdentical(capture(full, opts.probes.size()),
                    capture(second, opts.probes.size()));
}

TEST(AutoEngine, PinnedKindsNeverSwitch)
{
    SimulatorOptions pin;
    pin.engine = EngineKind::Event;
    LlifSetup a = llifNetwork(50, 0.05, 5);
    Simulator ev(a.net, a.stim, pin);
    EXPECT_FALSE(ev.adaptive());
    EXPECT_TRUE(ev.eventActive());
    ev.run(300);
    EXPECT_EQ(ev.switches(), 0u);

    LlifSetup b = llifNetwork(50, 0.05, 5);
    pin.engine = EngineKind::Dense;
    Simulator dense(b.net, b.stim, pin);
    EXPECT_FALSE(dense.adaptive());
    EXPECT_FALSE(dense.eventActive());
    dense.run(300);
    EXPECT_EQ(dense.switches(), 0u);

    // Identical spikes regardless of the pin.
    EXPECT_EQ(ev.spikeCounts(), dense.spikeCounts());
}

TEST(AutoEngine, AutoFallsBackToDenseWhenIneligible)
{
    // A non-LLIF network cannot run event-driven, and neither can
    // the flexon backend; Auto must pin dense instead of dying.
    Network net;
    net.addPopulation("lif", defaultParams(ModelKind::LIF), 40);
    net.finalize();
    StimulusGenerator stim(3);
    stim.addSource(StimulusSource::poisson(0, 40, 0.05, 0.8f, 0));

    SimulatorOptions opts;
    opts.engine = EngineKind::Auto;
    Simulator sim(net, stim, opts);
    EXPECT_FALSE(sim.adaptive());
    EXPECT_FALSE(sim.eventActive());
    sim.run(100);
    EXPECT_EQ(sim.switches(), 0u);
    EXPECT_EQ(sim.currentStep(), 100u);

    LlifSetup s = llifNetwork(40, 0.05, 3);
    opts.backend = BackendKind::Flexon;
    Simulator flexon(s.net, s.stim, opts);
    EXPECT_FALSE(flexon.adaptive());
    EXPECT_STREQ(flexon.activeEngine(), "dense");
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

TEST(AutoEngine, AttachedRuleSeesEveryStepAcrossASwitch)
{
    const ForcedSwitchCalibration forced;
    LlifSetup s = llifNetwork(90, 0.05, 13);
    Simulator sim(s.net, s.stim, autoOptions());
    CountingRule rule;
    sim.attachPlasticityRule(&rule);
    sim.run(kSwitchRunSteps);
    ASSERT_GE(sim.switches(), 1u);
    EXPECT_EQ(rule.steps, kSwitchRunSteps);
}

TEST(AutoEngine, CrashDumpAfterSwitchCarriesSessionMetrics)
{
    const ForcedSwitchCalibration forced;
    LlifSetup s = llifNetwork(90, 0.05, 13);
    Simulator sim(s.net, s.stim, autoOptions());
    health::setCrashDumpRegistry(&sim.metrics());
    sim.run(kSwitchRunSteps);
    ASSERT_GE(sim.switches(), 1u);

    const std::string path = ::testing::TempDir() + "switch-dump.json";
    health::setCrashDumpPath(path);
    ASSERT_TRUE(health::writeCrashDump("test"));
    health::setCrashDumpPath("flexon-crash-dump.json");
    health::clearCrashDumpRegistry(&sim.metrics());
    std::ifstream is(path);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string dump = buffer.str();
    EXPECT_NE(dump.find("\"metrics\""), std::string::npos);
    EXPECT_NE(dump.find("\"sim.engine_switches\""), std::string::npos);
}

TEST(AutoEngine, StdpAcrossSwitchMatchesPinnedDense)
{
    // Spikes, learned weights and membranes all match: the event
    // engine replays the dense kernel's per-step leak.
    const ForcedSwitchCalibration forced;
    SimulatorOptions opts;
    opts.recordSpikes = true;
    LlifSetup a = llifNetwork(60, 0.05, 21);
    StdpEngine denseStdp(a.net, {});
    Simulator dense(a.net, a.stim, opts);
    dense.attachPlasticityRule(&denseStdp);
    dense.run(kSwitchRunSteps);

    opts.engine = EngineKind::Auto;
    LlifSetup b = llifNetwork(60, 0.05, 21);
    StdpEngine autoStdp(b.net, {});
    Simulator autoSim(b.net, b.stim, opts);
    autoSim.attachPlasticityRule(&autoStdp);
    autoSim.run(kSwitchRunSteps);
    ASSERT_GE(autoSim.switches(), 1u);

    EXPECT_EQ(dense.spikeCounts(), autoSim.spikeCounts());
    ASSERT_EQ(dense.spikeEvents().size(), autoSim.spikeEvents().size());
    for (size_t i = 0; i < dense.spikeEvents().size(); ++i) {
        EXPECT_EQ(dense.spikeEvents()[i].step,
                  autoSim.spikeEvents()[i].step);
        EXPECT_EQ(dense.spikeEvents()[i].neuron,
                  autoSim.spikeEvents()[i].neuron);
    }
    ASSERT_GT(a.net.weightMutations(), 0u) << "STDP never fired";
    for (uint64_t i = 0; i < a.net.numSynapses(); ++i) {
        EXPECT_EQ(std::as_const(a.net).synapseAt(i).weight,
                  std::as_const(b.net).synapseAt(i).weight)
            << "synapse " << i;
    }
    for (uint32_t n = 0; n < a.net.numNeurons(); ++n)
        EXPECT_EQ(dense.membrane(n), autoSim.membrane(n))
            << "neuron " << n;
}

TEST(AutoEngine, SwitchReusesTheSessionsProvider)
{
    // The session builds its connectivity provider once; the engines
    // it installs borrow it, so a switch builds no provider.
    const ForcedSwitchCalibration forced;
    SimulatorOptions opts = autoOptions();
    opts.threads = 3;
    LlifSetup s = llifNetwork(90, 0.05, 13);
    Simulator sim(s.net, s.stim, opts);
    const ConnectivityProvider *const provider = &sim.connectivity();
    ASSERT_TRUE(sim.eventActive());
    sim.run(kSwitchRunSteps);
    ASSERT_GE(sim.switches(), 1u);
    ASSERT_FALSE(sim.eventActive());
    EXPECT_EQ(&sim.connectivity(), provider);
    EXPECT_EQ(&sim.router().provider(), provider);

    // Back to the event engine (reset) and across the switch again.
    sim.reset();
    ASSERT_TRUE(sim.eventActive());
    sim.run(kSwitchRunSteps);
    ASSERT_FALSE(sim.eventActive());
    EXPECT_EQ(&sim.connectivity(), provider);
    EXPECT_EQ(&sim.router().provider(), provider);
}

TEST(AutoEngine, ResetReturnsToTheStartEngine)
{
    const ForcedSwitchCalibration forced;
    const SimulatorOptions opts = autoOptions();
    LlifSetup s = llifNetwork(90, 0.05, 13);
    Simulator sim(s.net, s.stim, opts);
    sim.run(kSwitchRunSteps);
    ASSERT_FALSE(sim.eventActive());
    const RunResult first = capture(sim, opts.probes.size());
    const uint64_t decisions = sim.planDecisionsTotal();

    sim.reset();
    EXPECT_TRUE(sim.eventActive());
    EXPECT_EQ(sim.switches(), 0u);
    EXPECT_EQ(sim.planDecisionsTotal(), 1u); // the step-0 choice
    sim.run(kSwitchRunSteps);
    expectIdentical(first, capture(sim, opts.probes.size()));
    EXPECT_EQ(sim.planDecisionsTotal(), decisions);
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
