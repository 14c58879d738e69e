/**
 * @file
 * Bit-identity of the delivery engine (snn/routing.hh) against a
 * naive serial delivery oracle: same spikes, same ring doubles, same
 * synapse-event counts, at thread counts 1/3/4, on a mixed network
 * with delays spanning the full ring depth, multiple synapse types
 * and populations, and on the degenerate shapes (more than 64 delay
 * buckets, zero synapses, a single neuron, every neuron firing on
 * every step). Each shape runs on materialized and compressed rows —
 * plus live STDP weight updates and the router's checkpoint: restart
 * equivalence, older router blocks, and rejection of corrupt state.
 *
 * The oracle replays the exact pre-routing-table semantics: dense
 * std::fill slot clears and per-fired-source scans of
 * Network::outgoing() in source-ascending, row order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <ostream>
#include <string>
#include <vector>

#include "features/model_table.hh"
#include "snn/routing.hh"
#include "snn/simulator.hh"
#include "snn/stdp.hh"

#include "older_checkpoint.hh"

namespace flexon {
namespace {

/** The seed's serial synapse phase, reimplemented verbatim. */
class OracleSimulator
{
  public:
    OracleSimulator(const Network &net, StimulusGenerator stim,
                    BackendKind kind = BackendKind::Reference)
        : net_(net), stim_(std::move(stim)),
          backend_(makeBackend(kind, net, IntegrationMode::Discrete,
                               SolverKind::Euler, 1)),
          ringDepth_(static_cast<size_t>(net.maxDelay()) + 1),
          slotSize_(net.numNeurons() * maxSynapseTypes),
          ring_(ringDepth_ * slotSize_, 0.0),
          counts_(net.numNeurons(), 0)
    {
    }

    void
    stepOnce()
    {
        double *const cur =
            ring_.data() + (t_ % ringDepth_) * slotSize_;
        for (const StimulusSpike &s : stim_.generate(t_))
            cur[s.target * maxSynapseTypes + s.type] += s.weight;
        backend_->step({cur, slotSize_}, fired_);
        std::fill(cur, cur + slotSize_, 0.0);
        const auto n = static_cast<uint32_t>(net_.numNeurons());
        for (uint32_t i = 0; i < n; ++i) {
            if (!fired_[i])
                continue;
            events_.push_back({t_, i});
            ++counts_[i];
            for (const Synapse &syn : net_.outgoing(i)) {
                ring_[((t_ + syn.delay) % ringDepth_) * slotSize_ +
                      syn.target * maxSynapseTypes + syn.type] +=
                    syn.weight;
                ++synapseEvents_;
            }
        }
        ++t_;
    }

    const Network &net_;
    StimulusGenerator stim_;
    std::unique_ptr<NeuronBackend> backend_;
    size_t ringDepth_;
    size_t slotSize_;
    std::vector<double> ring_;
    std::vector<uint8_t> fired_;
    std::vector<uint64_t> counts_;
    std::vector<SpikeEvent> events_;
    uint64_t synapseEvents_ = 0;
    uint64_t t_ = 0;
};

/** Bitwise ring comparison (0.0 vs -0.0 must not slip through). */
void
expectRingBitIdentical(const std::vector<double> &oracle,
                       const std::vector<double> &actual,
                       uint64_t step)
{
    ASSERT_EQ(oracle.size(), actual.size());
    if (std::memcmp(oracle.data(), actual.data(),
                    oracle.size() * sizeof(double)) == 0)
        return;
    for (size_t i = 0; i < oracle.size(); ++i) {
        ASSERT_EQ(oracle[i], actual[i])
            << "ring cell " << i << " diverged at step " << step;
    }
    FAIL() << "ring bit pattern diverged at step " << step;
}

/**
 * Three populations, synapse types 0..3, delays spanning the full
 * ring (1..maxDelay, including explicit maxDelay edges).
 */
Network
mixedNetwork(uint8_t maxDelay)
{
    Network net;
    const size_t a = net.addPopulation(
        "a", defaultParams(ModelKind::DLIF), 40);
    const size_t b =
        net.addPopulation("b", defaultParams(ModelKind::LIF), 30);
    const size_t c = net.addPopulation(
        "c", defaultParams(ModelKind::DLIF), 25);
    Rng rng(77);
    net.connectRandom(a, b, 0.15, 0.08, 1, maxDelay, 0, rng);
    net.connectRandom(b, c, 0.15, 0.07, 1, maxDelay, 1, rng);
    net.connectRandom(c, a, 0.15, 0.06, 2, maxDelay, 2, rng);
    net.connectRandom(a, a, 0.10, -0.05, 1, 3, 3, rng);
    // Edge delays: exactly 1 and exactly maxDelay (full ring span).
    net.addSynapse(0, {50, 0.2f, 1, 0});
    net.addSynapse(1, {51, 0.2f, maxDelay, 1});
    net.addSynapse(2, {94, -0.1f, maxDelay, 3});
    net.finalize();
    return net;
}

StimulusGenerator
mixedStimulus()
{
    StimulusGenerator stim(11);
    stim.addSource(StimulusSource::poisson(0, 95, 0.08, 0.5f, 0));
    return stim;
}

/** Network shapes the oracle matrix runs. */
enum class NetShape {
    Mixed,      ///< mixedNetwork(8): the common case
    ManyDelays, ///< > 64 distinct delays: no activity masks
    NoSynapses, ///< stimulus only, nothing to route
    OneNeuron,  ///< one neuron with autapses: every shard clamps to 1
    AllFiring,  ///< every neuron fires on every step
};

/** More than 64 distinct delays (1..100), so no bucket mask fits. */
Network
manyDelayNetwork()
{
    Network net;
    const size_t a =
        net.addPopulation("a", defaultParams(ModelKind::DLIF), 60);
    Rng rng(19);
    net.connectRandom(a, a, 0.25, 0.06, 1, 100, 0, rng);
    net.connectRandom(a, a, 0.05, -0.04, 1, 100, 1, rng);
    net.addSynapse(0, {1, 0.2f, 1, 0});
    net.addSynapse(1, {2, 0.2f, 100, 0});
    net.finalize();
    return net;
}

/**
 * Recurrent LIF neurons: LIF has no refractory period, so a drive
 * above threshold on every step (shapeStimulus) fires every neuron on
 * every step, and the excitatory recurrence only adds to it.
 */
Network
allFiringNetwork()
{
    Network net;
    const size_t a =
        net.addPopulation("a", defaultParams(ModelKind::LIF), 40);
    Rng rng(23);
    net.connectRandom(a, a, 0.2, 0.05, 1, 6, 0, rng);
    net.finalize();
    return net;
}

/** A shape's network. */
Network
shapeNetwork(NetShape shape)
{
    switch (shape) {
    case NetShape::Mixed:
        return mixedNetwork(8);
    case NetShape::ManyDelays:
        return manyDelayNetwork();
    case NetShape::NoSynapses: {
        Network net;
        net.addPopulation("bare", defaultParams(ModelKind::DLIF),
                          95);
        net.finalize();
        return net;
    }
    case NetShape::OneNeuron: {
        Network net;
        net.addPopulation("one", defaultParams(ModelKind::DLIF), 1);
        net.addSynapse(0, {0, 0.3f, 2, 0});
        net.addSynapse(0, {0, -0.1f, 5, 1});
        net.finalize();
        return net;
    }
    case NetShape::AllFiring:
        return allFiringNetwork();
    }
    return {};
}

StimulusGenerator
shapeStimulus(NetShape shape, size_t neurons)
{
    if (shape == NetShape::Mixed)
        return mixedStimulus();
    StimulusGenerator stim(11);
    const auto count = static_cast<uint32_t>(neurons);
    if (shape == NetShape::AllFiring)
        stim.addSource(StimulusSource::pattern(0, count, 1, 150.0f, 0));
    else
        stim.addSource(StimulusSource::poisson(0, count, 0.08, 0.5f, 0));
    return stim;
}

/** How an oracle case delivers. */
enum class Delivery {
    Materialized, ///< materialized rows
    Compressed,   ///< compressed rows
};

/** One cell of the oracle matrix. */
struct EquivalenceCase
{
    NetShape shape;
    size_t threads;
    Delivery delivery = Delivery::Materialized;
};

/** Name prefix; the mixed shape keeps the bare t1/t3/t4 names. */
const char *
shapePrefix(NetShape shape)
{
    static const char *const prefix[] = {"", "manyDelays_",
                                         "noSynapses_", "oneNeuron_",
                                         "allFiring_"};
    return prefix[static_cast<int>(shape)];
}

/** Name prefix; materialized cases keep the bare names. */
const char *
deliveryPrefix(Delivery delivery)
{
    static const char *const prefix[] = {"", "compressed_"};
    return prefix[static_cast<int>(delivery)];
}

/** gtest's GetParam() printer: "1" for mixed/t1, "oneNeuron_3". */
void
PrintTo(const EquivalenceCase &c, std::ostream *os)
{
    *os << deliveryPrefix(c.delivery) << shapePrefix(c.shape)
        << c.threads;
}

std::vector<EquivalenceCase>
equivalenceCases()
{
    std::vector<EquivalenceCase> cases;
    for (const Delivery delivery :
         {Delivery::Materialized, Delivery::Compressed})
        for (const NetShape shape :
             {NetShape::Mixed, NetShape::ManyDelays,
              NetShape::NoSynapses, NetShape::OneNeuron,
              NetShape::AllFiring})
            for (const size_t threads : {1, 3, 4})
                cases.push_back({shape, threads, delivery});
    return cases;
}

class RoutingEquivalence
    : public ::testing::TestWithParam<EquivalenceCase>
{
};

TEST_P(RoutingEquivalence, BitIdenticalToNaiveOracle)
{
    const auto [shape, threads, delivery] = GetParam();
    Network net = shapeNetwork(shape);
    const StimulusGenerator stim =
        shapeStimulus(shape, net.numNeurons());

    SimulatorOptions opts;
    opts.threads = threads;
    opts.recordSpikes = true;
    if (delivery == Delivery::Compressed)
        opts.connectivity = ConnectivityKind::Compressed;
    Simulator sim(net, stim, opts);
    OracleSimulator oracle(net, stim);
    if (shape == NetShape::Mixed) {
        ASSERT_EQ(net.maxDelay(), 8); // delays span the full ring
    }
    if (shape == NetShape::ManyDelays) {
        ASSERT_GT(sim.connectivity().bucketCount(), 64u);
        ASSERT_FALSE(sim.connectivity().rowMasksExact());
    }

    for (uint64_t step = 0; step < 400; ++step) {
        sim.stepOnce();
        oracle.stepOnce();
        ASSERT_EQ(oracle.fired_, sim.lastFired()) << "step " << step;
        expectRingBitIdentical(oracle.ring_, sim.ringBuffer(), step);
        if (shape == NetShape::AllFiring) {
            const std::vector<uint8_t> &fired = sim.lastFired();
            ASSERT_TRUE(std::all_of(fired.begin(), fired.end(),
                                    [](uint8_t f) { return f != 0; }))
                << "a neuron stayed silent at step " << step;
        }
    }

    EXPECT_GT(oracle.events_.size(), 0u) << "network stayed silent";
    EXPECT_EQ(oracle.counts_, sim.spikeCounts());
    EXPECT_EQ(oracle.synapseEvents_, sim.stats().synapseEvents);
    if (shape != NetShape::NoSynapses) {
        EXPECT_GT(oracle.synapseEvents_, 0u) << "nothing was routed";
    }
    ASSERT_EQ(oracle.events_.size(), sim.spikeEvents().size());
    for (size_t i = 0; i < oracle.events_.size(); ++i) {
        EXPECT_EQ(oracle.events_[i].step, sim.spikeEvents()[i].step);
        EXPECT_EQ(oracle.events_[i].neuron,
                  sim.spikeEvents()[i].neuron);
    }
}

std::string
equivalenceName(const ::testing::TestParamInfo<EquivalenceCase> &info)
{
    return deliveryPrefix(info.param.delivery) +
           std::string(shapePrefix(info.param.shape)) + "t" +
           std::to_string(info.param.threads);
}

INSTANTIATE_TEST_SUITE_P(Threads, RoutingEquivalence,
                         ::testing::ValuesIn(equivalenceCases()),
                         equivalenceName);

TEST(RoutingTable, LayoutPreservesRowOrderAndCoversAllSynapses)
{
    Network net = mixedNetwork(8);
    const std::unique_ptr<ConnectivityProvider> provider =
        makeConnectivityProvider(ConnectivityKind::Materialized, net,
                                 3, nullptr);
    ASSERT_EQ(provider->shardCount(), 3u);
    ASSERT_TRUE(provider->rowMasksExact());
    const auto &begin = provider->shardTargetBegin();

    // Each (source, shard) row must be ascending-bucket runs, each
    // equal to the source's outgoing row filtered to that shard's
    // target range and that bucket's delay, in original row order —
    // the order-preservation invariant the bit-identity argument
    // rests on. The activity mask names exactly the row's buckets.
    RowScratch scratch;
    uint64_t covered = 0;
    for (uint32_t src = 0; src < net.numNeurons(); ++src) {
        for (size_t s = 0; s < provider->shardCount(); ++s) {
            const RowView row = provider->rowSpan(src, s, scratch);
            const DeliveryRecord *rec = row.records;
            uint64_t mask = 0;
            for (const uint32_t header : row.runs) {
                const uint32_t b = runHeaderBucket(header);
                const uint32_t len = runHeaderLength(header);
                ASSERT_EQ(mask >> b, 0u) << "runs must ascend";
                mask |= uint64_t{1} << b;
                std::vector<DeliveryRecord> expected;
                for (const Synapse &syn : net.outgoing(src)) {
                    if (syn.delay != provider->bucketDelay(b) ||
                        syn.target < begin[s] ||
                        syn.target >= begin[s + 1])
                        continue;
                    expected.push_back(
                        {static_cast<uint32_t>(
                             syn.target * maxSynapseTypes + syn.type),
                         syn.weight});
                }
                ASSERT_EQ(expected.size(), len);
                for (size_t i = 0; i < len; ++i) {
                    EXPECT_EQ(expected[i].cell, rec[i].cell);
                    EXPECT_EQ(expected[i].weight, rec[i].weight);
                }
                rec += len;
                covered += len;
            }
            EXPECT_EQ(provider->rowMask(src, s), mask);
        }
    }
    EXPECT_EQ(covered, net.numSynapses());
    EXPECT_GT(provider->connectivityBytes(),
              net.numSynapses() * sizeof(DeliveryRecord));
}

TEST(RoutingRefresh, StdpWeightUpdatesReachTheTable)
{
    // Two identical runs, each with its own network copy and STDP
    // engine mutating weights in place every step: the packed table
    // (simulator) must mirror the live weights the oracle reads.
    auto makeNet = [] {
        Network net;
        NeuronParams p = defaultParams(ModelKind::DLIF);
        const size_t a = net.addPopulation("plastic", p, 50);
        Rng rng(21);
        net.connectRandom(a, a, 0.2, 0.3, 1, 5, 0, rng);
        net.finalize();
        return net;
    };
    StimulusGenerator stim(13);
    stim.addSource(StimulusSource::poisson(0, 50, 0.10, 0.6f, 0));

    Network simNet = makeNet();
    Network oracleNet = makeNet();
    StdpConfig cfg;
    cfg.wMax = 0.6f;
    StdpEngine simStdp(simNet, cfg);
    StdpEngine oracleStdp(oracleNet, cfg);

    SimulatorOptions opts;
    opts.threads = 3;
    opts.recordSpikes = true;
    Simulator sim(simNet, stim, opts);
    OracleSimulator oracle(oracleNet, stim);

    for (uint64_t step = 0; step < 500; ++step) {
        sim.stepOnce();
        oracle.stepOnce();
        simStdp.onStep(sim.lastFired());
        oracleStdp.onStep(oracle.fired_);
        ASSERT_EQ(oracle.fired_, sim.lastFired()) << "step " << step;
        expectRingBitIdentical(oracle.ring_, sim.ringBuffer(), step);
    }
    EXPECT_GT(sim.stats().spikes, 0u);
    // The run must actually have moved weights, or the test is vacuous.
    EXPECT_NE(simStdp.meanPlasticWeight(), 0.3);
    EXPECT_DOUBLE_EQ(simStdp.meanPlasticWeight(),
                     oracleStdp.meanPlasticWeight());
}

TEST(RoutingRefresh, FullRefreshAfterLogOverflow)
{
    // Mutate more synapses than the log ring holds between steps:
    // the table must fall back to a full weight mirror.
    Network net;
    NeuronParams p = defaultParams(ModelKind::LIF);
    const size_t a = net.addPopulation("big", p, 120);
    Rng rng(9);
    net.connectRandom(a, a, 0.5, 0.05, 1, 3, 0, rng);
    net.finalize();
    ASSERT_GT(net.numSynapses(), Network::weightLogCapacity);

    StimulusGenerator stim(7);
    stim.addSource(StimulusSource::poisson(0, 120, 0.1, 150.0f, 0));
    SimulatorOptions opts;
    opts.threads = 2;
    Simulator sim(net, stim, opts);
    OracleSimulator oracle(net, stim);

    for (uint64_t step = 0; step < 50; ++step) {
        sim.stepOnce();
        oracle.stepOnce();
    }
    // Rewrite every weight in one burst (log overflows), then keep
    // comparing against an oracle over the same mutated network.
    for (uint64_t i = 0; i < net.numSynapses(); ++i)
        net.setSynapseWeight(i, net.synapseAt(i).weight * 0.5f);
    for (uint64_t step = 50; step < 120; ++step) {
        sim.stepOnce();
        oracle.stepOnce();
        ASSERT_EQ(oracle.fired_, sim.lastFired()) << "step " << step;
        expectRingBitIdentical(oracle.ring_, sim.ringBuffer(), step);
    }
    EXPECT_GT(sim.stats().spikes, 0u);
}

// ---- Sparse-activity delivery (activity bitmaps) ---------------

/** A recurrent LLIF network at a few-percent firing rate. */
Network
llifNet(size_t neurons, uint64_t seed)
{
    Network net;
    NeuronParams p = defaultParams(ModelKind::LLIF);
    const size_t a = net.addPopulation("llif-a", p, neurons / 2);
    const size_t b =
        net.addPopulation("llif-b", p, neurons - neurons / 2);
    Rng rng(seed);
    net.connectRandom(a, b, 0.06, 0.35, 1, 9, 0, rng);
    net.connectRandom(b, a, 0.06, 0.30, 2, 12, 0, rng);
    net.connectRandom(a, a, 0.04, -0.20, 1, 5, 1, rng);
    net.finalize();
    return net;
}

StimulusGenerator
llifStim(size_t neurons, uint64_t seed)
{
    StimulusGenerator stim(seed);
    stim.addSource(StimulusSource::poisson(
        0, static_cast<uint32_t>(neurons), 0.02, 0.8f, 0));
    return stim;
}

class SparseDelivery : public ::testing::TestWithParam<size_t>
{
};

TEST_P(SparseDelivery, MatchesOracleAndSkipsShards)
{
    // Delivery with activity masks against the naive serial oracle:
    // spike for spike and ring double for ring double, at every
    // thread count.
    const size_t threads = GetParam();
    const size_t n = 120;
    Network netOracle = llifNet(n, 31);
    Network netDense = llifNet(n, 31);

    OracleSimulator oracle(netOracle, llifStim(n, 5));
    SimulatorOptions opts;
    opts.threads = threads;
    opts.recordSpikes = true;
    Simulator dense(netDense, llifStim(n, 5), opts);

    for (uint64_t step = 0; step < 600; ++step) {
        oracle.stepOnce();
        dense.stepOnce();
        ASSERT_EQ(oracle.fired_, dense.lastFired()) << "step " << step;
        expectRingBitIdentical(oracle.ring_, dense.ringBuffer(), step);
    }
    EXPECT_GT(oracle.events_.size(), 0u) << "network stayed silent";
    EXPECT_EQ(oracle.counts_, dense.spikeCounts());
    EXPECT_EQ(oracle.synapseEvents_, dense.stats().synapseEvents);
    EXPECT_GT(dense.router().bucketsVisited(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, SparseDelivery,
                         ::testing::Values(1, 3, 4),
                         [](const auto &info) {
                             return "t" + std::to_string(info.param);
                         });

TEST(SparseDelivery, BucketsVisitedBoundedByPopulatedStreams)
{
    // One source with exactly two delay buckets: delivery must visit
    // at most fired x populated-bucket streams, never the full
    // (shard x bucket) cross product.
    Network net;
    NeuronParams p = defaultParams(ModelKind::LIF);
    net.addPopulation("pair", p, 200);
    net.addSynapse(0, {1, 150.0f, 1, 0});
    net.addSynapse(0, {2, 150.0f, 7, 0});
    net.finalize();
    StimulusGenerator stim(1);
    stim.addSource(StimulusSource::pattern(0, 1, 10, 150.0f, 0));

    SimulatorOptions opts;
    opts.threads = 4;
    Simulator sim(net, stim, opts);
    sim.run(400);
    const uint64_t spikes = sim.stats().spikes;
    EXPECT_GT(spikes, 0u);
    // Neuron 0's two targets live in one shard; every firing visits
    // at most 2 (shard, bucket) streams.
    EXPECT_LE(sim.router().bucketsVisited(), 2 * spikes);
}

// ---- Router checkpoint: restart equivalence and corrupt state ---

/**
 * A checkpoint as lines, with the router section located: the
 * `router D S K` line, the ring line, then (before v5) 2 x D x K
 * touch lines, routed lists first.
 */
struct CheckpointLines
{
    std::vector<std::string> lines;
    size_t router = 0;

    explicit CheckpointLines(const std::string &text)
    {
        std::istringstream is(text);
        for (std::string line; std::getline(is, line);)
            lines.push_back(line);
        while (router < lines.size() &&
               lines[router].rfind("router ", 0) != 0)
            ++router;
    }

    std::string &ring() { return lines.at(router + 1); }
    std::string &touch(size_t i) { return lines.at(router + 2 + i); }

    std::string
    text() const
    {
        std::string out;
        for (const std::string &line : lines)
            out += line + '\n';
        return out;
    }
};

SimulatorOptions
checkpointOptions()
{
    SimulatorOptions opts;
    opts.threads = 3;
    opts.recordSpikes = true;
    return opts;
}

/** The mixed network's checkpoint after `steps` steps. */
std::string
savedCheckpoint(const Network &net, uint64_t steps)
{
    Simulator sim(net, mixedStimulus(), checkpointOptions());
    sim.run(steps);
    std::stringstream os;
    sim.saveCheckpoint(os);
    return os.str();
}

void
restoreInto(const Network &net, const std::string &text)
{
    Simulator sim(net, mixedStimulus(), checkpointOptions());
    std::istringstream is(text);
    sim.loadCheckpoint(is);
}

TEST(RouterCheckpoint, RangeKeyFromOlderBuildForcesExactDenseClear)
{
    // A router block from an older build holds touch lists of every
    // kind: run keys, record-range keys (bit 63), saturated lists and
    // stimulus cells. The ring alone is the delivery state, so the
    // restored run must step bit for bit with the full run, and keep
    // its event and bucket counts.
    const Network net = mixedNetwork(8);
    const uint64_t split = 60, total = 200;
    Simulator full(net, mixedStimulus(), checkpointOptions());
    full.run(split);
    std::stringstream saved;
    full.saveCheckpoint(saved);
    const std::string older = olderCheckpoint(saved.str(), 4);
    ASSERT_NE(older.find(std::to_string(olderRoutedKey(2, 2, true))),
              std::string::npos)
        << "the older block carries no range key";

    Simulator resumed(net, mixedStimulus(), checkpointOptions());
    std::istringstream is(older);
    resumed.loadCheckpoint(is);
    expectRingBitIdentical(full.ringBuffer(), resumed.ringBuffer(),
                           split);
    EXPECT_EQ(resumed.router().events(), full.router().events());
    EXPECT_EQ(resumed.router().bucketsVisited(),
              full.router().bucketsVisited());
    for (uint64_t step = split; step < total; ++step) {
        full.stepOnce();
        resumed.stepOnce();
        ASSERT_EQ(full.lastFired(), resumed.lastFired())
            << "step " << step;
        expectRingBitIdentical(full.ringBuffer(), resumed.ringBuffer(),
                               step);
    }
    EXPECT_GT(full.stats().spikes, 0u);
    EXPECT_EQ(full.spikeCounts(), resumed.spikeCounts());
    EXPECT_EQ(full.stats().synapseEvents,
              resumed.stats().synapseEvents);
    EXPECT_EQ(full.router().bucketsVisited(),
              resumed.router().bucketsVisited());
}

// Corrupt-state death tests: each edits one field of a checkpoint the
// test saved itself. "threadsafe" re-executes the binary for the
// death assertion, since the pool's worker threads are alive.

TEST(RouterCheckpoint, RejectsTouchCountAboveItsTokens)
{
    // An older block's touch line is read past, never stored: a count
    // above the keys that follow is a truncated line, and must not
    // size an allocation.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Network net = mixedNetwork(8);
    const std::string older = olderCheckpoint(savedCheckpoint(net, 60), 4);
    CheckpointLines truncated(older);
    truncated.touch(0) = "touch 5 1000000000000 1 2 3";
    EXPECT_DEATH(restoreInto(net, truncated.text()),
                 "truncated touch list in checkpoint");
    CheckpointLines malformed(older);
    malformed.touch(1) = "touched 0 0";
    EXPECT_DEATH(restoreInto(net, malformed.text()),
                 "malformed touch list in checkpoint");
}

TEST(RouterCheckpoint, RejectsMalformedRingTokens)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Network net = mixedNetwork(8);
    const std::string text = savedCheckpoint(net, 60);
    for (const char *token : {"zq", "z", "0.5x", "abc"}) {
        CheckpointLines cp(text);
        cp.ring() = std::string("ring ") + token;
        EXPECT_DEATH(restoreInto(net, cp.text()),
                     "malformed ring section in checkpoint")
            << token;
    }
}

} // namespace
} // namespace flexon
