/**
 * @file
 * Tests for the SNN topology substrate: population bookkeeping, the
 * wiring builders (random / fixed-fanout), CSR integrity, and delay
 * handling.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>

#include "bernoulli_cases.hh"
#include "features/model_table.hh"
#include "snn/network.hh"

namespace flexon {
namespace {

NeuronParams
lif()
{
    return defaultParams(ModelKind::LIF);
}

/** A (source, synapse) entry in the order addSynapse receives it. */
using Staged = std::pair<uint32_t, Synapse>;

void
expectSameSynapse(const Synapse &a, const Synapse &b)
{
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(std::bit_cast<uint32_t>(a.weight),
              std::bit_cast<uint32_t>(b.weight));
    EXPECT_EQ(a.delay, b.delay);
    EXPECT_EQ(a.type, b.type);
}

void
expectSameRngState(const RngState &a, const RngState &b)
{
    EXPECT_EQ(a.s, b.s);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.cachedNormal),
              std::bit_cast<uint64_t>(b.cachedNormal));
    EXPECT_EQ(a.hasCachedNormal, b.hasCachedNormal);
}

/** A network with one LIF population per entry of `sizes`. */
Network
populations(const std::vector<size_t> &sizes)
{
    Network net;
    for (const size_t count : sizes)
        net.addPopulation("p" + std::to_string(net.numPopulations()),
                          lif(), count);
    return net;
}

/**
 * Stage `entries` through addSynapse into `net`, finalize, and check
 * the CSR against a std::stable_sort of the list by source: every row
 * and its start, the synapse count, the in-degrees, the delays used
 * and the largest delay (1 when there is no synapse).
 */
void
expectStableSortBySource(Network &net, std::vector<Staged> entries)
{
    for (const auto &[src, syn] : entries)
        net.addSynapse(src, syn);
    net.finalize();
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Staged &a, const Staged &b) {
                         return a.first < b.first;
                     });

    ASSERT_EQ(net.numSynapses(), entries.size());
    size_t next = 0;
    for (uint32_t src = 0; src < net.numNeurons(); ++src) {
        EXPECT_EQ(net.rowStart(src), next) << "source " << src;
        for (const Synapse &syn : net.outgoing(src)) {
            ASSERT_LT(next, entries.size());
            EXPECT_EQ(entries[next].first, src);
            expectSameSynapse(syn, entries[next].second);
            ++next;
        }
    }
    EXPECT_EQ(next, entries.size());

    std::vector<uint32_t> incoming(net.numNeurons(), 0);
    std::array<bool, 256> delays{};
    uint8_t maxDelay = 1;
    for (const auto &[src, syn] : entries) {
        ++incoming[syn.target];
        delays[syn.delay] = true;
        maxDelay = std::max(maxDelay, syn.delay);
    }
    EXPECT_EQ(net.incomingCounts(), incoming);
    EXPECT_EQ(net.delaysUsed(), delays);
    EXPECT_EQ(net.maxDelay(), maxDelay);
}

/** Both networks hold the same rows, synapse for synapse. */
void
expectSameNetwork(const Network &a, const Network &b)
{
    ASSERT_EQ(a.numSynapses(), b.numSynapses());
    for (uint32_t src = 0; src < a.numNeurons(); ++src) {
        const auto ra = a.outgoing(src), rb = b.outgoing(src);
        ASSERT_EQ(ra.size(), rb.size()) << "source " << src;
        for (size_t i = 0; i < ra.size(); ++i)
            expectSameSynapse(ra[i], rb[i]);
    }
}

// The wiring builders' weight and delay draws, written out again so
// the reference loops below do not share code with the builders.
float
referenceWeight(double mean, Rng &rng)
{
    const double w = rng.normal(mean, 0.1 * std::abs(mean));
    return static_cast<float>(mean >= 0.0 ? std::max(0.0, w)
                                          : std::min(0.0, w));
}

uint8_t
referenceDelay(uint8_t lo, uint8_t hi, Rng &rng)
{
    if (hi <= lo)
        return lo;
    return static_cast<uint8_t>(lo + rng.uniformInt(hi - lo + 1));
}

/** connectRandom as a loop of rng.bernoulli(p) tests. */
void
referenceConnectRandom(const Population &src, const Population &dst,
                       double p, double mean, uint8_t dlo, uint8_t dhi,
                       uint8_t type, Rng &rng, std::vector<Staged> &out)
{
    for (size_t s = 0; s < src.count; ++s) {
        const auto src_id = static_cast<uint32_t>(src.base + s);
        for (size_t d = 0; d < dst.count; ++d) {
            const auto dst_id = static_cast<uint32_t>(dst.base + d);
            if (src_id == dst_id || !rng.bernoulli(p))
                continue;
            out.push_back({src_id,
                           {dst_id, referenceWeight(mean, rng),
                            referenceDelay(dlo, dhi, rng), type}});
        }
    }
}

TEST(Network, PopulationIndexing)
{
    Network net;
    const size_t a = net.addPopulation("a", lif(), 10);
    const size_t b = net.addPopulation("b", lif(), 5);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(net.numNeurons(), 15u);
    EXPECT_EQ(net.population(0).base, 0u);
    EXPECT_EQ(net.population(1).base, 10u);
    EXPECT_EQ(net.populationOf(3).name, "a");
    EXPECT_EQ(net.populationOf(12).name, "b");
}

TEST(Network, RandomConnectivityDensity)
{
    Network net;
    const size_t a = net.addPopulation("a", lif(), 100);
    const size_t b = net.addPopulation("b", lif(), 100);
    Rng rng(5);
    net.connectRandom(a, b, 0.1, 0.5, 1, 5, 0, rng);
    net.finalize();
    // Expect ~100*100*0.1 = 1000 synapses (binomial, sd ~30).
    EXPECT_NEAR(net.numSynapses(), 1000.0, 150.0);
}

TEST(Network, RandomConnectivitySkipsSelf)
{
    Network net;
    const size_t a = net.addPopulation("a", lif(), 50);
    Rng rng(7);
    net.connectRandom(a, a, 1.0, 0.5, 1, 1, 0, rng);
    net.finalize();
    EXPECT_EQ(net.numSynapses(), 50u * 49u);
    for (uint32_t n = 0; n < 50; ++n)
        for (const Synapse &s : net.outgoing(n))
            EXPECT_NE(s.target, n);
}

TEST(Network, FixedFanoutExactDegree)
{
    Network net;
    const size_t a = net.addPopulation("a", lif(), 20);
    const size_t b = net.addPopulation("b", lif(), 100);
    Rng rng(11);
    net.connectFixedFanout(a, b, 10, 0.5, 1, 3, 0, rng);
    net.finalize();
    EXPECT_EQ(net.numSynapses(), 20u * 10u);
    for (uint32_t n = 0; n < 20; ++n) {
        auto out = net.outgoing(n);
        EXPECT_EQ(out.size(), 10u);
        std::set<uint32_t> targets;
        for (const Synapse &s : out) {
            EXPECT_GE(s.target, 20u); // all in population b
            targets.insert(s.target);
        }
        EXPECT_EQ(targets.size(), 10u) << "targets must be distinct";
    }
}

TEST(Network, CsrPartitionsAllSynapses)
{
    Network net;
    const size_t a = net.addPopulation("a", lif(), 30);
    Rng rng(13);
    net.connectRandom(a, a, 0.2, 0.5, 1, 8, 0, rng);
    net.finalize();
    size_t total = 0;
    for (uint32_t n = 0; n < net.numNeurons(); ++n)
        total += net.outgoing(n).size();
    EXPECT_EQ(total, net.numSynapses());
}

TEST(Network, WeightsFollowRequestedSign)
{
    Network net;
    const size_t a = net.addPopulation("a", lif(), 40);
    Rng rng(17);
    net.connectRandom(a, a, 0.3, -0.5, 1, 1, 1, rng);
    net.finalize();
    for (uint32_t n = 0; n < 40; ++n) {
        for (const Synapse &s : net.outgoing(n)) {
            EXPECT_LE(s.weight, 0.0f);
            EXPECT_EQ(s.type, 1);
        }
    }
}

TEST(Network, DelaysWithinRangeAndMaxTracked)
{
    Network net;
    const size_t a = net.addPopulation("a", lif(), 40);
    Rng rng(19);
    net.connectRandom(a, a, 0.3, 0.5, 2, 9, 0, rng);
    net.finalize();
    uint8_t seen_max = 0;
    for (uint32_t n = 0; n < 40; ++n) {
        for (const Synapse &s : net.outgoing(n)) {
            EXPECT_GE(s.delay, 2);
            EXPECT_LE(s.delay, 9);
            seen_max = std::max(seen_max, s.delay);
        }
    }
    EXPECT_EQ(net.maxDelay(), seen_max);
}

TEST(Network, ExplicitSynapses)
{
    Network net;
    net.addPopulation("a", lif(), 4);
    net.addSynapse(0, {1, 0.25f, 3, 0});
    net.addSynapse(0, {2, -0.5f, 1, 1});
    net.addSynapse(3, {0, 1.0f, 1, 0});
    net.finalize();
    EXPECT_EQ(net.outgoing(0).size(), 2u);
    EXPECT_EQ(net.outgoing(1).size(), 0u);
    EXPECT_EQ(net.outgoing(3).size(), 1u);
    EXPECT_FLOAT_EQ(net.outgoing(3)[0].weight, 1.0f);
}

TEST(Network, DeterministicWiringForSameSeed)
{
    auto build = [] {
        Network net;
        const size_t a =
            net.addPopulation("a", defaultParams(ModelKind::LIF), 50);
        Rng rng(23);
        net.connectRandom(a, a, 0.15, 0.5, 1, 10, 0, rng);
        net.finalize();
        return net;
    };
    const Network n1 = build();
    const Network n2 = build();
    ASSERT_EQ(n1.numSynapses(), n2.numSynapses());
    for (uint32_t n = 0; n < n1.numNeurons(); ++n) {
        auto o1 = n1.outgoing(n), o2 = n2.outgoing(n);
        ASSERT_EQ(o1.size(), o2.size());
        for (size_t i = 0; i < o1.size(); ++i) {
            EXPECT_EQ(o1[i].target, o2[i].target);
            EXPECT_EQ(o1[i].weight, o2[i].weight);
            EXPECT_EQ(o1[i].delay, o2[i].delay);
        }
    }
}

TEST(Network, FinalizeIsStableSortBySource)
{
    // Each shape: the population sizes, then the addSynapse order.
    const std::vector<std::pair<std::vector<size_t>, std::vector<Staged>>>
        shapes = {
            // Source 2 arrives in three runs with other sources between
            // them, the last neuron (5) is a source, neurons 3 and 4
            // have empty rows, and three (target, delay) pairs repeat
            // with new weights.
            {{4, 2},
             {{2, {1, 0.5f, 3, 0}},
              {5, {0, 0.25f, 1, 1}},
              {0, {3, -0.5f, 2, 0}},
              {2, {4, 0.75f, 3, 0}},
              {5, {2, 1.0f, 4, 0}},
              {1, {2, 0.125f, 1, 0}},
              {2, {1, 0.625f, 3, 0}},
              {0, {3, -0.75f, 2, 0}},
              {5, {0, 0.375f, 1, 1}},
              {2, {5, 0.5f, 9, 1}}}},
            // No synapse: every row empty and maxDelay() stays 1.
            {{3, 2}, {}},
            // One neuron with two autapses.
            {{1}, {{0, {0, 0.5f, 2, 0}}, {0, {0, -0.25f, 7, 1}}}},
            // Every synapse on one source.
            {{3, 2},
             {{3, {4, 0.5f, 2, 0}},
              {3, {0, 0.25f, 1, 0}},
              {3, {4, 0.75f, 2, 0}},
              {3, {3, 1.0f, 5, 1}},
              {3, {1, -0.5f, 1, 2}}}},
        };
    for (size_t i = 0; i < shapes.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "shape " << i);
        Network net = populations(shapes[i].first);
        expectStableSortBySource(net, shapes[i].second);
    }
}

TEST(Network, ConnectRandomDrawsTheBernoulliStream)
{
    // A recurrent projection (its autapses skipped without a draw),
    // then a second one from the same Rng, against a loop of
    // rng.bernoulli(p): the same synapses and the same Rng position
    // afterwards. Each p also starts with a draw on either side of
    // its threshold.
    for (const double p : bernoulliEdgeProbabilities()) {
        const uint64_t threshold = Rng::bernoulliThreshold(p);
        std::vector<RngState> starts = {Rng(31).state()};
        for (const uint64_t k : {threshold - 1, threshold})
            if (k < (uint64_t{1} << 53))
                starts.push_back(rngStateDrawing(k << 11 | 0x5a5));
        for (const RngState &start : starts) {
            SCOPED_TRACE(testing::Message() << "p = " << p);
            Network net = populations({40, 25});
            Network expected = net;
            Rng rng, ref;
            rng.setState(start);
            ref.setState(start);
            net.connectRandom(0, 0, p, 0.5, 1, 4, 0, rng);
            net.connectRandom(0, 1, p, -0.3, 2, 2, 1, rng);
            net.finalize();

            std::vector<Staged> staged;
            referenceConnectRandom(expected.population(0),
                                   expected.population(0), p, 0.5, 1,
                                   4, 0, ref, staged);
            referenceConnectRandom(expected.population(0),
                                   expected.population(1), p, -0.3, 2,
                                   2, 1, ref, staged);
            for (const auto &[src, syn] : staged)
                expected.addSynapse(src, syn);
            expected.finalize();

            expectSameNetwork(net, expected);
            expectSameRngState(rng.state(), ref.state());
        }
    }
}

} // namespace
} // namespace flexon
