/**
 * @file
 * Kernel-equivalence suite: the per-population batch kernels
 * (flexon/kernel.hh) must be bit-identical to stepping scalar
 * FlexonNeuron instances — for every one of the 12 features and every
 * Table III model (covering the Table I networks), at host thread
 * counts 1, 3, and 4 (uneven chunk boundaries included), and at every
 * kernel level the CPU has (scalar, AVX2, AVX-512), forced one at a
 * time, over 1-4 synapse types and population sizes that leave every
 * tail length of the 4- and 8-lane loops.
 *
 * The scalar side reproduces the pre-kernel pipeline exactly: inputs
 * are pre-scaled per neuron with FlexonConfig::scaleWeight (CUB
 * merging all synapse-type slots into one signed input) and fed to
 * FlexonNeuron::step. Spikes, post-step membrane potentials, and
 * preResetV are compared raw-bit for raw-bit on every step.
 *
 * The folded array steps on the same kernels, so each case also runs
 * a FoldedFlexonArray against one FoldedFlexonNeuron per neuron: the
 * microcode the array's timing model counts but does not execute.
 *
 * The double kernel (ReferenceBatch) carries the same contract against
 * ReferenceNeuron, the scalar golden model, at every forced level: the
 * full state of every neuron is compared by bits after every step.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/health.hh"
#include "common/random.hh"
#include "common/telemetry.hh"
#include "features/model_table.hh"
#include "flexon/array.hh"
#include "flexon/config.hh"
#include "flexon/neuron.hh"
#include "folded/array.hh"
#include "folded/neuron.hh"
#include "models/reference_batch.hh"
#include "models/reference_neuron.hh"
#include "snn/backend.hh"
#include "snn/network.hh"

namespace flexon {
namespace {

constexpr size_t kNeuronsPerPop = 41; // not a multiple of any lane count
constexpr size_t kSteps = 200;

/**
 * Valid parameters exercising every field a feature set can touch,
 * with `types` synapse types (CUB merges its input into one).
 */
NeuronParams
makeParams(FeatureSet features, size_t types = 3)
{
    NeuronParams p;
    p.features = features;
    p.numSynapseTypes = features.has(Feature::CUB) ? 1 : types;
    p.epsM = 0.05;
    p.vLeak = 0.015;
    for (size_t t = 0; t < maxSynapseTypes; ++t) {
        p.syn[t].epsG = 0.10 + 0.05 * static_cast<double>(t);
        p.syn[t].vG = (t % 2 == 0) ? 1.2 : -0.4;
    }
    p.deltaT = 0.2;
    p.vCrit = 0.5;
    p.vFiring = 1.3;
    p.epsW = 0.05;
    p.a = 0.02;
    p.vW = 0.1;
    p.b = 0.05;
    p.arSteps = features.has(Feature::AR) ? 3 : 0;
    p.epsR = 0.1;
    p.vRR = -0.3;
    p.vAR = 0.2;
    p.qR = 0.04;
    EXPECT_EQ(p.validate(), "");
    return p;
}

/**
 * Sparse reference-unit input for `n` neurons, ~25% active slots.
 * Amplitudes are large enough that epsilon_m-scaled drive crosses the
 * firing threshold (exercising reset, refractory, and adaptation
 * paths), with an inhibitory tail for sign coverage.
 */
std::vector<double>
makeInput(Rng &rng, size_t n)
{
    std::vector<double> input(n * maxSynapseTypes, 0.0);
    for (double &slot : input) {
        if (rng.bernoulli(0.25))
            slot = rng.uniform(-1.0, 6.0);
    }
    return input;
}

/**
 * Pre-scale one neuron's input row in the hardware convention: CUB
 * merges all slots into one signed input; otherwise each slot is
 * scaled independently.
 */
std::array<Fix, maxSynapseTypes>
scaleRow(const FlexonConfig &c, const double *row)
{
    std::array<Fix, maxSynapseTypes> out{};
    if (c.features.has(Feature::CUB)) {
        double sum = 0.0;
        for (size_t t = 0; t < maxSynapseTypes; ++t)
            sum += row[t];
        out[0] = c.scaleWeight(sum);
    } else {
        for (size_t t = 0; t < maxSynapseTypes; ++t)
            out[t] = c.scaleWeight(row[t]);
    }
    return out;
}

/**
 * The `folded-array` checkpoint text of neurons in the per-neuron
 * layout: v, y[4], g[4], w, r, cnt, preResetV, raw integers.
 */
std::string
foldedArrayText(const std::vector<FoldedFlexonNeuron> &neurons,
                uint64_t cycles, uint64_t controlSignals)
{
    std::ostringstream os;
    os << "folded-array " << neurons.size() << ' ' << cycles << ' '
       << controlSignals << '\n';
    for (const FoldedFlexonNeuron &n : neurons) {
        const FlexonState &s = n.state();
        os << s.v.raw();
        for (const Fix y : s.y)
            os << ' ' << y.raw();
        for (const Fix g : s.g)
            os << ' ' << g.raw();
        os << ' ' << s.w.raw() << ' ' << s.r.raw() << ' ' << s.cnt
           << ' ' << n.preResetV().raw() << '\n';
    }
    return os.str();
}

/**
 * Run `kSteps` of one population through the scalar neurons, the
 * flexon array and the folded array, asserting bit-identical spikes /
 * v / preResetV throughout, and the folded array against its
 * microcode oracle. Adds the number of spikes to `spikes`.
 */
void
expectKernelMatchesScalar(const NeuronParams &params, size_t threads,
                          size_t n, size_t &spikes)
{
    SCOPED_TRACE(testing::Message()
                 << "features=" << params.features.toString()
                 << " types=" << params.numSynapseTypes << " n=" << n
                 << " threads=" << threads);
    const FlexonConfig config = FlexonConfig::fromParams(params);

    std::vector<FlexonNeuron> scalar(n, FlexonNeuron(config));

    FlexonArray array(/*width=*/5);
    array.setHostThreads(threads);
    array.addPopulation(config, n);

    std::vector<FoldedFlexonNeuron> oracle(n, FoldedFlexonNeuron(config));
    FoldedFlexonArray folded(/*width=*/5);
    folded.setHostThreads(threads);
    folded.addPopulation(config, n);

    Rng rng(0x5eed + threads * 0); // same stimulus at every thread count
    std::vector<uint8_t> firedArray, firedFolded;

    for (size_t step = 0; step < kSteps; ++step) {
        const std::vector<double> input = makeInput(rng, n);

        array.step(std::span<const double>(input), firedArray);
        folded.step(std::span<const double>(input), firedFolded);

        for (size_t i = 0; i < n; ++i) {
            const auto scaled =
                scaleRow(config, input.data() + i * maxSynapseTypes);
            const std::span<const Fix> row(scaled.data(), scaled.size());
            const bool expect = scalar[i].step(row);
            spikes += expect;
            ASSERT_EQ(oracle[i].step(row), expect)
                << "step " << step << " neuron " << i << " (microcode)";
            ASSERT_EQ(firedFolded[i] != 0, expect)
                << "step " << step << " neuron " << i << " (folded)";
            ASSERT_EQ(folded.neuron(i).state().v.raw(),
                      oracle[i].state().v.raw())
                << "step " << step << " neuron " << i << " (folded)";
            ASSERT_EQ(folded.neuron(i).preResetV().raw(),
                      oracle[i].preResetV().raw())
                << "step " << step << " neuron " << i << " (folded)";
            ASSERT_EQ(firedArray[i] != 0, expect)
                << "step " << step << " neuron " << i << " (array)";
            ASSERT_EQ(array.neuron(i).state().v.raw(),
                      scalar[i].state().v.raw())
                << "step " << step << " neuron " << i << " (array)";
            ASSERT_EQ(array.neuron(i).preResetV().raw(),
                      scalar[i].preResetV().raw())
                << "step " << step << " neuron " << i << " (array)";
        }
    }
    const uint64_t programLength = buildProgram(config).length();
    EXPECT_EQ(folded.controlSignals(), kSteps * n * programLength);
    std::ostringstream saved;
    folded.saveState(saved);
    EXPECT_EQ(saved.str(),
              foldedArrayText(oracle, kSteps * folded.cyclesPerStep(),
                              kSteps * n * programLength));
}

/**
 * expectKernelMatchesScalar at the default size, where the stimulus
 * must drive activity, or the comparison proves nothing.
 */
void
expectActiveKernelMatchesScalar(const NeuronParams &params,
                                size_t threads)
{
    size_t spikes = 0;
    expectKernelMatchesScalar(params, threads, kNeuronsPerPop, spikes);
    EXPECT_GT(spikes, 0u);
}

const std::array<size_t, 3> kThreadCounts = {1, 3, 4};

/**
 * Minimal valid host set for each single feature: a membrane-decay
 * feature plus an accumulation feature is the smallest legal config,
 * so each feature under test rides with EXD and/or CUB.
 */
FeatureSet
singleFeatureHost(Feature f)
{
    using enum Feature;
    switch (f) {
      case EXD: return FeatureSet{EXD, CUB};
      case LID: return FeatureSet{LID, CUB};
      case CUB: return FeatureSet{EXD, CUB};
      case COBE: return FeatureSet{EXD, COBE};
      case COBA: return FeatureSet{EXD, COBA};
      case REV: return FeatureSet{EXD, COBE, REV};
      case QDI: return FeatureSet{EXD, CUB, QDI};
      case EXI: return FeatureSet{EXD, CUB, EXI};
      case ADT: return FeatureSet{EXD, CUB, ADT};
      case SBT: return FeatureSet{EXD, CUB, SBT};
      case AR: return FeatureSet{EXD, CUB, AR};
      case RR: return FeatureSet{EXD, CUB, RR};
      default: return FeatureSet{};
    }
}

void
expectEverySingleFeatureBitIdentical()
{
    for (size_t f = 0; f < numFeatures; ++f) {
        const Feature feature = static_cast<Feature>(f);
        const NeuronParams params =
            makeParams(singleFeatureHost(feature));
        for (size_t threads : kThreadCounts)
            expectActiveKernelMatchesScalar(params, threads);
    }
}

void
expectEveryModelBitIdentical()
{
    for (ModelKind model : allModels()) {
        SCOPED_TRACE(modelName(model));
        const NeuronParams params = defaultParams(model);
        for (size_t threads : kThreadCounts)
            expectActiveKernelMatchesScalar(params, threads);
    }
}

TEST(KernelEquivalence, EverySingleFeatureBitIdentical)
{
    expectEverySingleFeatureBitIdentical();
}

TEST(KernelEquivalence, EveryModelBitIdentical)
{
    expectEveryModelBitIdentical();
}

TEST(KernelEquivalence, SingleFeatureHostsHitSpecializedKernels)
{
    for (size_t f = 0; f < numFeatures; ++f) {
        const Feature feature = static_cast<Feature>(f);
        const NeuronParams params =
            makeParams(singleFeatureHost(feature));
        FlexonArray array;
        array.addPopulation(FlexonConfig::fromParams(params),
                            kNeuronsPerPop);
        EXPECT_TRUE(array.populationSpecialized(0))
            << featureName(feature);
    }
}

TEST(KernelEquivalence, ModelsHitSpecializedKernels)
{
    for (ModelKind model : allModels()) {
        FlexonArray array;
        array.addPopulation(
            FlexonConfig::fromParams(defaultParams(model)),
            kNeuronsPerPop);
        EXPECT_TRUE(array.populationSpecialized(0))
            << modelName(model);
    }
}

void
expectGenericFallbackStillBitIdentical()
{
    // A valid combination deliberately absent from the dispatch
    // table: it must fall back to the generic kernel and remain
    // bit-identical to the scalar path.
    using enum Feature;
    const NeuronParams params =
        makeParams(FeatureSet{EXD, CUB, QDI, ADT, AR});
    FlexonArray array;
    array.addPopulation(FlexonConfig::fromParams(params),
                        kNeuronsPerPop);
    EXPECT_FALSE(array.populationSpecialized(0));
    for (size_t threads : kThreadCounts)
        expectActiveKernelMatchesScalar(params, threads);
}

TEST(KernelEquivalence, GenericFallbackStillBitIdentical)
{
    expectGenericFallbackStillBitIdentical();
}

void
expectMultiPopulationChunksRespectBoundaries()
{
    // Three populations with deliberately uneven sizes so that
    // parallelFor chunk boundaries fall inside populations; the
    // fused path must still match per-population scalar neurons.
    struct Pop
    {
        ModelKind model;
        size_t count;
    };
    const std::array<Pop, 3> pops = {
        Pop{ModelKind::LIF, 7},
        Pop{ModelKind::AdEx, 13},
        Pop{ModelKind::DLIF, 5},
    };

    for (size_t threads : kThreadCounts) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        FlexonArray array(/*width=*/4);
        array.setHostThreads(threads);
        std::vector<FlexonConfig> configs;
        std::vector<FlexonNeuron> scalar;
        size_t n = 0;
        for (const Pop &pop : pops) {
            const FlexonConfig c =
                FlexonConfig::fromParams(defaultParams(pop.model));
            array.addPopulation(c, pop.count);
            for (size_t i = 0; i < pop.count; ++i)
                scalar.emplace_back(c);
            configs.push_back(c);
            n += pop.count;
        }

        Rng rng(0xabcd);
        std::vector<uint8_t> fired;
        for (size_t step = 0; step < kSteps; ++step) {
            const std::vector<double> input = makeInput(rng, n);
            array.step(std::span<const double>(input), fired);

            size_t i = 0;
            for (size_t p = 0; p < pops.size(); ++p) {
                for (size_t k = 0; k < pops[p].count; ++k, ++i) {
                    const auto row = scaleRow(
                        configs[p],
                        input.data() + i * maxSynapseTypes);
                    const bool expect = scalar[i].step(
                        std::span<const Fix>(row.data(), row.size()));
                    ASSERT_EQ(fired[i] != 0, expect)
                        << "step " << step << " neuron " << i;
                    ASSERT_EQ(array.neuron(i).state().v.raw(),
                              scalar[i].state().v.raw())
                        << "step " << step << " neuron " << i;
                }
            }
        }
    }
}

TEST(KernelEquivalence, MultiPopulationChunksRespectBoundaries)
{
    expectMultiPopulationChunksRespectBoundaries();
}

/**
 * Runs each test at one kernel level, forced through setKernelLevel;
 * a level the CPU lacks is skipped by name.
 */
class ForcedKernelLevel : public testing::TestWithParam<KernelLevel>
{
  protected:
    void
    SetUp() override
    {
        if (!setKernelLevel(GetParam())) {
            GTEST_SKIP() << "this CPU has no "
                         << kernelLevelName(GetParam()) << " kernels";
        }
        ASSERT_EQ(selectStepKernel(FeatureSet{Feature::EXD, Feature::CUB})
                      .level,
                  GetParam());
    }

    void TearDown() override { setKernelLevel(bestKernelLevel()); }
};

TEST_P(ForcedKernelLevel, EverySingleFeatureBitIdentical)
{
    expectEverySingleFeatureBitIdentical();
}

TEST_P(ForcedKernelLevel, EveryModelBitIdentical)
{
    expectEveryModelBitIdentical();
}

TEST_P(ForcedKernelLevel, GenericFallbackStillBitIdentical)
{
    expectGenericFallbackStillBitIdentical();
}

TEST_P(ForcedKernelLevel, MultiPopulationChunksRespectBoundaries)
{
    expectMultiPopulationChunksRespectBoundaries();
}

TEST_P(ForcedKernelLevel, SynapseTypeCountsAndTailsBitIdentical)
{
    // Sizes 1..9 leave every tail length of the 4- and 8-lane loops
    // (and a population smaller than one vector); 41 adds full
    // vectors before the tail. Conductance masks run 1-4 synapse
    // types, which sets the y/g stride and the input columns read.
    using enum Feature;
    const std::array<size_t, 8> sizes = {1, 3, 4, 5, 7, 8, 9, 41};
    const std::array<FeatureSet, 4> conductance = {
        FeatureSet{EXD, COBE},
        FeatureSet{EXD, COBA, AR},
        FeatureSet{EXD, COBE, REV, AR},           // DLIF
        FeatureSet{EXD, COBE, REV, QDI, ADT, AR}, // Izhikevich
    };
    // A one-neuron population may stay silent; each shape family as
    // a whole must fire.
    for (const FeatureSet &features : conductance) {
        for (size_t types = 1; types <= maxSynapseTypes; ++types) {
            size_t spikes = 0;
            for (size_t n : sizes) {
                for (size_t threads : kThreadCounts)
                    expectKernelMatchesScalar(makeParams(features, types),
                                              threads, n, spikes);
            }
            EXPECT_GT(spikes, 0u) << features.toString() << " " << types;
        }
    }
    for (const FeatureSet &features :
         {FeatureSet{LID, CUB, AR}, FeatureSet{EXD, CUB, RR}}) {
        size_t spikes = 0;
        for (size_t n : sizes) {
            for (size_t threads : kThreadCounts)
                expectKernelMatchesScalar(makeParams(features), threads,
                                          n, spikes);
        }
        EXPECT_GT(spikes, 0u) << features.toString();
    }
}

/**
 * Input at and beyond every edge of the double->Fix conversion:
 * overflow, infinities, NaN, signed zero, subnormals, and values on,
 * next to and rounding onto the Q10.22 rails.
 */
const std::array<double, 20> kEdgeInputs = {
    1e300,
    -1e300,
    std::numeric_limits<double>::infinity(),
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::quiet_NaN(),
    -0.0,
    std::numeric_limits<double>::denorm_min(),
    -std::numeric_limits<double>::denorm_min(),
    1e-310,
    static_cast<double>(Fix::rawMax) * Fix::epsilon(),
    (static_cast<double>(Fix::rawMax) - 0.5) * Fix::epsilon(),
    (static_cast<double>(Fix::rawMax) - 0.75) * Fix::epsilon(),
    static_cast<double>(Fix::rawMin) * Fix::epsilon(),
    (static_cast<double>(Fix::rawMin) + 0.5) * Fix::epsilon(),
    (static_cast<double>(Fix::rawMin) + 0.75) * Fix::epsilon(),
    600.0,
    -600.0,
    0.5 * Fix::epsilon(),
    3.0,
    -1.0,
};

/** True iff a raw value sits on a Q10.22 rail. */
bool
onRail(Fix x)
{
    return x.raw() == Fix::rawMax || x.raw() == Fix::rawMin;
}

TEST_P(ForcedKernelLevel, RailTapCountsExactly)
{
    // The saturation tap must count exactly the conversions the scalar
    // datapath clips: one per live (unblocked, nonzero) slot whose
    // conversion or scaled product sits on a rail. The expected count
    // is derived here from Fix itself, neuron by neuron.
    using enum Feature;
    const std::array<NeuronParams, 2> cases = {
        makeParams(FeatureSet{EXD, COBE, REV, AR}, 2),
        makeParams(FeatureSet{LID, CUB, AR}),
    };
    const size_t n = 13; // vectors of 4 and 8 plus a tail at each width
    for (const NeuronParams &params : cases) {
        const FlexonConfig config = FlexonConfig::fromParams(params);
        SCOPED_TRACE(config.features.toString());
        const bool cub = config.features.has(CUB);
        for (size_t threads : {size_t(1), size_t(4)}) {
            FlexonArray array;
            array.setHostThreads(threads);
            array.addPopulation(config, n);
            std::vector<FlexonNeuron> scalar(n, FlexonNeuron(config));
            Rng rng(0xed6e);
            std::vector<uint8_t> fired;
            uint64_t blockedLive = 0, railed = 0;
            for (size_t step = 0; step < 60; ++step) {
                std::vector<double> input(n * maxSynapseTypes, 0.0);
                for (double &slot : input) {
                    if (rng.bernoulli(0.5))
                        slot = kEdgeInputs[rng.uniformInt(
                            kEdgeInputs.size())];
                }
                uint64_t expected = 0;
                for (size_t i = 0; i < n; ++i) {
                    const double *row = input.data() + i * maxSynapseTypes;
                    const bool blocked = scalar[i].state().cnt > 0;
                    std::vector<double> live;
                    if (cub) {
                        double sum = 0.0;
                        for (size_t t = 0; t < maxSynapseTypes; ++t)
                            sum += row[t];
                        live.push_back(sum);
                    } else {
                        live.assign(row, row + config.numSynapseTypes);
                    }
                    for (const double d : live) {
                        if (d == 0.0)
                            continue;
                        if (blocked) {
                            ++blockedLive;
                            continue;
                        }
                        const Fix w = Fix::fromDouble(d);
                        if (onRail(w) || onRail(w * config.inputScale))
                            ++expected;
                    }
                }
                railed += expected;

                const uint64_t before = health::fixSaturations();
                array.step(std::span<const double>(input), fired);
                ASSERT_EQ(health::fixSaturations() - before, expected)
                    << "step " << step << " threads " << threads;
                for (size_t i = 0; i < n; ++i) {
                    const auto row = scaleRow(
                        config, input.data() + i * maxSynapseTypes);
                    const bool expect = scalar[i].step(
                        std::span<const Fix>(row.data(), row.size()));
                    ASSERT_EQ(fired[i] != 0, expect)
                        << "step " << step << " neuron " << i;
                    ASSERT_EQ(array.neuron(i).state().v.raw(),
                              scalar[i].state().v.raw())
                        << "step " << step << " neuron " << i;
                    ASSERT_EQ(array.neuron(i).preResetV().raw(),
                              scalar[i].preResetV().raw())
                        << "step " << step << " neuron " << i;
                }
            }
            // Both branches of the tap ran: clipped live slots, and
            // railing input the refractory gate discarded.
            EXPECT_GT(railed, 0u);
            EXPECT_GT(blockedLive, 0u);
        }
    }
}

/** Bit equality of two doubles, counting any two NaNs as equal. */
bool
sameDouble(double a, double b)
{
    return (std::isnan(a) && std::isnan(b)) ||
           std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/** Every field of two reference neurons' states, by sameDouble. */
testing::AssertionResult
sameState(const NeuronState &got, double gotPreResetV,
          const NeuronState &want, double wantPreResetV)
{
    const auto differ = [](const char *field, double a, double b) {
        return testing::AssertionFailure()
               << field << ": " << std::setprecision(17) << a << " vs "
               << b;
    };
    if (!sameDouble(got.v, want.v))
        return differ("v", got.v, want.v);
    if (!sameDouble(gotPreResetV, wantPreResetV))
        return differ("preResetV", gotPreResetV, wantPreResetV);
    if (!sameDouble(got.w, want.w))
        return differ("w", got.w, want.w);
    if (!sameDouble(got.r, want.r))
        return differ("r", got.r, want.r);
    for (size_t t = 0; t < maxSynapseTypes; ++t) {
        if (!sameDouble(got.y[t], want.y[t]))
            return differ("y", got.y[t], want.y[t]);
        if (!sameDouble(got.g[t], want.g[t]))
            return differ("g", got.g[t], want.g[t]);
    }
    if (got.cnt != want.cnt)
        return testing::AssertionFailure()
               << "cnt: " << got.cnt << " vs " << want.cnt;
    return testing::AssertionSuccess();
}

/** makeParams, with `types` synapse types on CUB masks too. */
NeuronParams
makeReferenceParams(FeatureSet features, size_t types)
{
    NeuronParams p = makeParams(features, types);
    p.numSynapseTypes = types;
    EXPECT_EQ(p.validate(), "");
    return p;
}

/**
 * One step's reference-unit input: makeInput's drive, or with `edge`
 * a kEdgeInputs value in half the slots.
 */
std::vector<double>
makeReferenceInput(Rng &rng, size_t n, bool edge)
{
    if (!edge)
        return makeInput(rng, n);
    std::vector<double> input(n * maxSynapseTypes, 0.0);
    for (double &slot : input) {
        if (rng.bernoulli(0.5))
            slot = kEdgeInputs[rng.uniformInt(kEdgeInputs.size())];
    }
    return input;
}

/**
 * Run `kSteps` of `n` neurons through a ReferenceBatch built at the
 * forced level, one built at the scalar level, and one ReferenceNeuron
 * per neuron. With `offsets`, every third neuron gets a threshold
 * offset, which the golden model has no field for, so those neurons
 * are compared against the scalar batch only. After every step,
 * spikes and the full state must match by bits. Adds the number of
 * spikes to `spikes`.
 */
void
expectReferenceBatchMatches(const NeuronParams &params, size_t n,
                            bool edge, bool offsets, size_t &spikes)
{
    SCOPED_TRACE(testing::Message()
                 << "features=" << params.features.toString()
                 << " types=" << params.numSynapseTypes << " n=" << n
                 << " edge=" << edge << " offsets=" << offsets);
    ReferenceBatch batch(params, n);
    const KernelLevel level = batch.kernelLevel();
    ASSERT_EQ(level, activeKernelLevel());
    setKernelLevel(KernelLevel::Scalar);
    ReferenceBatch scalarBatch(params, n);
    setKernelLevel(level);
    std::vector<ReferenceNeuron> golden(n, ReferenceNeuron(params));
    const auto hasOffset = [&](size_t i) { return offsets && i % 3 == 0; };
    for (size_t i = 0; i < n; ++i) {
        if (hasOffset(i)) {
            const double offset = 0.05 * static_cast<double>(i % 7) - 0.15;
            batch.setThresholdOffset(i, offset);
            scalarBatch.setThresholdOffset(i, offset);
        }
    }

    Rng rng(0x5eed);
    std::vector<uint8_t> fired(n), firedScalar(n);
    for (size_t step = 0; step < kSteps; ++step) {
        const std::vector<double> input = makeReferenceInput(rng, n, edge);
        batch.step(input.data(), fired.data(), 0, n);
        scalarBatch.step(input.data(), firedScalar.data(), 0, n);
        for (size_t i = 0; i < n; ++i) {
            spikes += fired[i];
            ASSERT_EQ(fired[i], firedScalar[i])
                << "step " << step << " neuron " << i;
            ASSERT_TRUE(sameState(batch.state(i), batch.preResetV(i),
                                  scalarBatch.state(i),
                                  scalarBatch.preResetV(i)))
                << "step " << step << " neuron " << i << " (scalar batch)";
            if (hasOffset(i))
                continue;
            const bool expect = golden[i].step(std::span<const double>(
                input.data() + i * maxSynapseTypes,
                params.numSynapseTypes));
            ASSERT_EQ(fired[i] != 0, expect)
                << "step " << step << " neuron " << i;
            ASSERT_TRUE(sameState(batch.state(i), batch.preResetV(i),
                                  golden[i].state(),
                                  golden[i].preResetV()))
                << "step " << step << " neuron " << i << " (golden)";
        }
    }
}

TEST_P(ForcedKernelLevel, ReferenceBatchEveryFeatureAndModel)
{
    for (size_t f = 0; f < numFeatures; ++f) {
        const Feature feature = static_cast<Feature>(f);
        size_t spikes = 0;
        expectReferenceBatchMatches(makeParams(singleFeatureHost(feature)),
                                    kNeuronsPerPop, false, false, spikes);
        EXPECT_GT(spikes, 0u) << featureName(feature);
    }
    for (ModelKind model : allModels()) {
        size_t spikes = 0;
        expectReferenceBatchMatches(defaultParams(model), kNeuronsPerPop,
                                    false, false, spikes);
        EXPECT_GT(spikes, 0u) << modelName(model);
    }
}

TEST_P(ForcedKernelLevel, ReferenceBatchSynapseTypeCountsAndTails)
{
    // As for the Q10.22 kernels: sizes leave every tail length of the
    // 4- and 8-lane loops, and 1-4 synapse types set the y/g stride
    // and the input columns read. The off-table mask runs the
    // runtime-query body.
    using enum Feature;
    const std::array<size_t, 8> sizes = {1, 3, 4, 5, 7, 8, 9, 41};
    const std::array<FeatureSet, 7> masks = {
        FeatureSet{LID, CUB, AR},                 // LLIF
        FeatureSet{EXD, COBE},
        FeatureSet{EXD, COBA, AR},
        FeatureSet{EXD, COBE, REV, AR},           // DLIF
        FeatureSet{EXD, COBE, REV, QDI, ADT, AR}, // Izhikevich
        FeatureSet{EXD, COBE, REV, AR, RR},
        FeatureSet{EXD, CUB, QDI, ADT, AR},       // not in the table
    };
    for (const FeatureSet &features : masks) {
        for (size_t types = 1; types <= maxSynapseTypes; ++types) {
            size_t spikes = 0;
            for (size_t n : sizes) {
                expectReferenceBatchMatches(
                    makeReferenceParams(features, types), n, false, false,
                    spikes);
            }
            EXPECT_GT(spikes, 0u) << features.toString() << " " << types;
        }
    }
}

TEST_P(ForcedKernelLevel, ReferenceBatchThresholdOffsetsAndEdgeInputs)
{
    // Overflowing, infinite, NaN, signed-zero and subnormal inputs, on
    // every model, with and without threshold offsets; and offsets on
    // finite drive. LLIF with offsets is the LIFL_IE model.
    for (ModelKind model : allModels()) {
        const NeuronParams params = defaultParams(model);
        size_t spikes = 0;
        expectReferenceBatchMatches(params, kNeuronsPerPop, false, true,
                                    spikes);
        EXPECT_GT(spikes, 0u) << modelName(model);
        for (bool offsets : {false, true}) {
            size_t edgeSpikes = 0;
            expectReferenceBatchMatches(params, kNeuronsPerPop, true,
                                        offsets, edgeSpikes);
        }
    }
}

TEST_P(ForcedKernelLevel, ReferenceGenericKernelCountsFallbackSteps)
{
    telemetry::Counter &fallback =
        telemetry::Registry::global().counter(
            "kernel_fallback_steps",
            "neuron steps taken by the generic fallback kernel");
    using enum Feature;
    const size_t n = 13;
    std::vector<double> input(n * maxSynapseTypes, 0.0);
    std::vector<uint8_t> fired(n);
    ReferenceBatch table(makeParams(FeatureSet{LID, CUB, AR}), n);
    uint64_t before = fallback.value();
    table.step(input.data(), fired.data(), 0, n);
    EXPECT_EQ(fallback.value(), before);
    ReferenceBatch generic(makeParams(FeatureSet{EXD, CUB, QDI, ADT, AR}), n);
    before = fallback.value();
    generic.step(input.data(), fired.data(), 0, n);
    EXPECT_EQ(fallback.value() - before, n);
}

/**
 * The `backend reference discrete` checkpoint text the golden neurons
 * imply for `net`: one `batch` line per population, y and g
 * neuron-major.
 */
std::string
referenceBackendText(const Network &net,
                     const std::vector<ReferenceNeuron> &golden)
{
    std::ostringstream os;
    os << std::setprecision(17) << "backend reference discrete "
       << golden.size() << '\n';
    size_t base = 0;
    for (size_t p = 0; p < net.numPopulations(); ++p) {
        const Population &pop = net.population(p);
        const size_t types = pop.params.numSynapseTypes;
        const auto neurons = std::span(golden).subspan(base, pop.count);
        os << "batch " << pop.count << ' ' << types;
        for (const ReferenceNeuron &n : neurons)
            os << ' ' << n.state().v;
        for (const ReferenceNeuron &n : neurons)
            os << ' ' << n.state().w;
        for (const ReferenceNeuron &n : neurons)
            os << ' ' << n.state().r;
        for (const ReferenceNeuron &n : neurons)
            os << ' ' << n.preResetV();
        for (const ReferenceNeuron &n : neurons) {
            for (size_t t = 0; t < types; ++t)
                os << ' ' << n.state().y[t];
        }
        for (const ReferenceNeuron &n : neurons) {
            for (size_t t = 0; t < types; ++t)
                os << ' ' << n.state().g[t];
        }
        for (const ReferenceNeuron &n : neurons)
            os << ' ' << n.state().cnt;
        os << '\n';
        base += pop.count;
    }
    return os.str();
}

TEST_P(ForcedKernelLevel, ReferenceBackendThreadsBitIdentical)
{
    // Uneven populations, so the pool's chunk boundaries fall inside
    // populations and every tail length occurs; one mask is off the
    // table. The whole state is compared through the checkpoint text,
    // which at 17 digits differs for any two finite doubles.
    struct Pop
    {
        NeuronParams params;
        size_t count;
    };
    using enum Feature;
    const std::array<Pop, 4> pops = {
        Pop{makeReferenceParams(FeatureSet{LID, CUB, AR}, 2), 13},
        Pop{defaultParams(ModelKind::AdEx), 21},
        Pop{makeReferenceParams(FeatureSet{EXD, CUB, QDI, ADT, AR}, 3), 10},
        Pop{defaultParams(ModelKind::IFPscAlpha), 9},
    };
    Network net;
    std::vector<ReferenceNeuron> prototype;
    for (const Pop &pop : pops) {
        net.addPopulation("pop", pop.params, pop.count);
        prototype.insert(prototype.end(), pop.count,
                         ReferenceNeuron(pop.params));
    }
    net.finalize();
    const size_t n = prototype.size();

    for (size_t threads : kThreadCounts) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        const auto backend = makeReferenceBackend(
            net, IntegrationMode::Discrete, SolverKind::Euler, threads);
        std::vector<ReferenceNeuron> golden = prototype;
        Rng rng(0xabcd);
        std::vector<uint8_t> fired;
        size_t spikes = 0;
        for (size_t step = 0; step < kSteps; ++step) {
            const std::vector<double> input = makeInput(rng, n);
            backend->step(input, fired);
            for (size_t i = 0; i < n; ++i) {
                const bool expect = golden[i].step(std::span<const double>(
                    input.data() + i * maxSynapseTypes,
                    golden[i].params().numSynapseTypes));
                spikes += expect;
                ASSERT_EQ(fired[i] != 0, expect)
                    << "step " << step << " neuron " << i;
            }
            std::ostringstream saved;
            saved << std::setprecision(17);
            backend->saveState(saved);
            ASSERT_EQ(saved.str(), referenceBackendText(net, golden))
                << "step " << step;
        }
        EXPECT_GT(spikes, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    KernelLevels, ForcedKernelLevel,
    testing::Values(KernelLevel::Scalar, KernelLevel::Avx2,
                    KernelLevel::Avx512),
    [](const testing::TestParamInfo<KernelLevel> &info) {
        return std::string(kernelLevelName(info.param));
    });

TEST(KernelEquivalence, ReferenceBatchMatchesScalarReference)
{
    // The reference backend's SoA batches carry the same bit-exactness
    // contract against the scalar golden model (exact double ops).
    for (ModelKind model : allModels()) {
        SCOPED_TRACE(modelName(model));
        const NeuronParams params = defaultParams(model);
        const size_t n = 17;

        ReferenceBatch batch(params, n);
        std::vector<ReferenceNeuron> scalar(n, ReferenceNeuron(params));

        Rng rng(0x1234);
        std::vector<uint8_t> fired(n, 0);
        for (size_t step = 0; step < 100; ++step) {
            const std::vector<double> input = makeInput(rng, n);
            batch.step(input.data(), fired.data(), 0, n);
            for (size_t i = 0; i < n; ++i) {
                const bool expect = scalar[i].step(std::span<const double>(
                    input.data() + i * maxSynapseTypes,
                    params.numSynapseTypes));
                ASSERT_EQ(fired[i] != 0, expect)
                    << "step " << step << " neuron " << i;
                ASSERT_EQ(batch.membrane(i), scalar[i].state().v)
                    << "step " << step << " neuron " << i;
                ASSERT_EQ(batch.preResetV(i), scalar[i].preResetV())
                    << "step " << step << " neuron " << i;
            }
        }
    }
}

TEST(KernelEquivalence, ViewMaterializesFullState)
{
    const NeuronParams params = defaultParams(ModelKind::AdEx);
    const FlexonConfig config = FlexonConfig::fromParams(params);
    const size_t n = 9;

    FlexonArray array;
    array.addPopulation(config, n);
    std::vector<FlexonNeuron> scalar(n, FlexonNeuron(config));

    Rng rng(0x77);
    std::vector<uint8_t> fired;
    for (size_t step = 0; step < 50; ++step) {
        const std::vector<double> input = makeInput(rng, n);
        array.step(std::span<const double>(input), fired);
        for (size_t i = 0; i < n; ++i) {
            const auto row =
                scaleRow(config, input.data() + i * maxSynapseTypes);
            scalar[i].step(std::span<const Fix>(row.data(), row.size()));
        }
    }
    for (size_t i = 0; i < n; ++i) {
        const FlexonState got = array.neuron(i).state();
        const FlexonState want = scalar[i].state();
        EXPECT_EQ(got.v.raw(), want.v.raw());
        EXPECT_EQ(got.w.raw(), want.w.raw());
        EXPECT_EQ(got.r.raw(), want.r.raw());
        EXPECT_EQ(got.cnt, want.cnt);
        for (size_t t = 0; t < config.numSynapseTypes; ++t) {
            EXPECT_EQ(got.y[t].raw(), want.y[t].raw());
            EXPECT_EQ(got.g[t].raw(), want.g[t].raw());
        }
    }
}

TEST(KernelEquivalence, ResetRestoresRestingState)
{
    const NeuronParams params = defaultParams(ModelKind::Izhikevich);
    const FlexonConfig config = FlexonConfig::fromParams(params);
    const size_t n = 6;

    FlexonArray array;
    array.addPopulation(config, n);
    Rng rng(0x99);
    std::vector<uint8_t> fired;
    for (size_t step = 0; step < 20; ++step) {
        const std::vector<double> input = makeInput(rng, n);
        array.step(std::span<const double>(input), fired);
    }
    array.resetState();
    for (size_t i = 0; i < n; ++i) {
        const FlexonState s = array.neuron(i).state();
        EXPECT_EQ(s.v.raw(), Fix::zero().raw());
        EXPECT_EQ(s.w.raw(), Fix::zero().raw());
        EXPECT_EQ(s.cnt, 0u);
    }
}

} // namespace
} // namespace flexon
