/**
 * @file
 * Kernel-equivalence suite: the per-population batch kernels
 * (flexon/kernel.hh) must be bit-identical to stepping scalar
 * FlexonNeuron instances — for every one of the 12 features and every
 * Table III model (covering the Table I networks), at host thread
 * counts 1, 3, and 4 (uneven chunk boundaries included).
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
 */

#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "features/model_table.hh"
#include "flexon/array.hh"
#include "flexon/config.hh"
#include "flexon/neuron.hh"
#include "folded/array.hh"
#include "folded/neuron.hh"
#include "models/reference_batch.hh"
#include "models/reference_neuron.hh"

namespace flexon {
namespace {

constexpr size_t kNeuronsPerPop = 41; // not a multiple of any lane count
constexpr size_t kSteps = 200;

/** Valid parameters exercising every field a feature set can touch. */
NeuronParams
makeParams(FeatureSet features)
{
    NeuronParams p;
    p.features = features;
    p.numSynapseTypes = features.has(Feature::CUB) ? 1 : 3;
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
 * microcode oracle.
 */
void
expectKernelMatchesScalar(const NeuronParams &params, size_t threads)
{
    SCOPED_TRACE(testing::Message()
                 << "features=" << params.features.toString()
                 << " threads=" << threads);
    const FlexonConfig config = FlexonConfig::fromParams(params);
    const size_t n = kNeuronsPerPop;

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

    size_t spikes = 0;
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
    // The stimulus must actually drive activity, or the comparison
    // proves nothing.
    EXPECT_GT(spikes, 0u);

    const uint64_t programLength = buildProgram(config).length();
    EXPECT_EQ(folded.controlSignals(), kSteps * n * programLength);
    std::ostringstream saved;
    folded.saveState(saved);
    EXPECT_EQ(saved.str(),
              foldedArrayText(oracle, kSteps * folded.cyclesPerStep(),
                              kSteps * n * programLength));
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

TEST(KernelEquivalence, EverySingleFeatureBitIdentical)
{
    for (size_t f = 0; f < numFeatures; ++f) {
        const Feature feature = static_cast<Feature>(f);
        const NeuronParams params =
            makeParams(singleFeatureHost(feature));
        for (size_t threads : kThreadCounts)
            expectKernelMatchesScalar(params, threads);
    }
}

TEST(KernelEquivalence, EveryModelBitIdentical)
{
    for (ModelKind model : allModels()) {
        SCOPED_TRACE(modelName(model));
        const NeuronParams params = defaultParams(model);
        for (size_t threads : kThreadCounts)
            expectKernelMatchesScalar(params, threads);
    }
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

TEST(KernelEquivalence, GenericFallbackStillBitIdentical)
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
        expectKernelMatchesScalar(params, threads);
}

TEST(KernelEquivalence, MultiPopulationChunksRespectBoundaries)
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
