/**
 * @file
 * What the two families of population step kernels share: the
 * instruction-set levels they are compiled for and the CPU check that
 * picks one, the feature queries their bodies are written over, the
 * one table of feature masks with compiled specializations, and the
 * lookup that picks a population's kernel by mask and level.
 *
 * The Q10.22 kernels (flexon/kernel.hh) and the double kernel
 * (models/reference_batch.hh) each supply one step function per
 * (mask, level) and one runtime-query function per level;
 * features/lanes.hh holds the vector primitives their lane bodies
 * are written over.
 */

#ifndef FLEXON_FEATURES_KERNEL_LEVEL_HH
#define FLEXON_FEATURES_KERNEL_LEVEL_HH

#include <array>
#include <cstdint>
#include <utility>

#include "features/feature.hh"

namespace flexon {

namespace telemetry {
class Counter;
}

/**
 * The instruction-set levels every step kernel is compiled for. A
 * vector level steps Lanes::width neurons at a time (4 for AVX2, 8
 * for AVX-512), each lane in the scalar operation order, and leaves
 * the tail of a slice to the scalar body, so every level is
 * bit-identical to the others.
 */
enum class KernelLevel : uint8_t { Scalar, Avx2, Avx512 };

const char *kernelLevelName(KernelLevel level);

/** True iff this CPU (and its OS) can run kernels of `level`. */
bool cpuHasKernelLevel(KernelLevel level);

/** The widest level this CPU runs: what selectKernel picks. */
KernelLevel bestKernelLevel();

/**
 * Internal entry point for the equivalence tests: make later
 * selectKernel calls, of both kernel families, pick `level` instead
 * of bestKernelLevel(). Returns false, and changes nothing, if the
 * CPU lacks `level`. Populations keep the kernel they were built with.
 */
bool setKernelLevel(KernelLevel level);

/** The level selectKernel builds at. */
KernelLevel activeKernelLevel();

/** Compile-time feature query: has() folds to a constant. */
template <uint16_t Mask>
struct StaticFeatures
{
    static constexpr bool
    has(Feature f)
    {
        return (Mask >> static_cast<uint16_t>(f)) & 1u;
    }
};

/** Runtime feature query for the generic fallback kernels. */
struct RuntimeFeatures
{
    uint16_t mask;
    bool
    has(Feature f) const
    {
        return (mask >> static_cast<uint16_t>(f)) & 1u;
    }
};

template <typename... Fs>
constexpr uint16_t
featureMask(Fs... fs)
{
    return static_cast<uint16_t>(
        ((1u << static_cast<uint16_t>(fs)) | ... | 0u));
}

/** The mask table, with the feature names in scope. */
namespace kernel_masks {

using enum Feature;

/**
 * The masks with compiled specializations: the Table III model
 * combinations (which cover every Table I network) plus the
 * single-feature building blocks the kernel-equivalence suite
 * exercises. Anything else falls back to the generic kernel.
 */
inline constexpr uint16_t kSpecializedMasks[] = {
    // Minimal valid hosts for each single feature (a membrane decay
    // plus an accumulation feature is the smallest legal config).
    featureMask(EXD, CUB),                             // LIF / EXD / CUB
    featureMask(LID, CUB),
    featureMask(EXD, COBE),
    featureMask(EXD, COBA),
    featureMask(EXD, COBE, REV),
    featureMask(EXD, CUB, QDI),
    featureMask(EXD, CUB, EXI),
    featureMask(EXD, CUB, ADT),
    featureMask(EXD, CUB, SBT),
    featureMask(EXD, CUB, AR),                         // also SLIF
    featureMask(EXD, CUB, RR),
    // The Table III model combinations (covering every Table I net).
    featureMask(LID, CUB, AR),                         // LLIF
    featureMask(EXD, COBE, AR),                        // DSRM0
    featureMask(EXD, COBE, REV, AR),                   // DLIF
    featureMask(EXD, COBE, REV, QDI, AR),              // QIF
    featureMask(EXD, COBE, REV, EXI, AR),              // EIF
    featureMask(EXD, COBE, REV, QDI, ADT, AR),         // Izhikevich
    featureMask(EXD, COBE, REV, EXI, ADT, SBT, AR),    // AdEx
    featureMask(EXD, COBA, REV, EXI, ADT, SBT, AR),    // AdEx_COBA
    featureMask(EXD, COBA, AR),                        // IF_psc_alpha
    featureMask(EXD, COBE, REV, AR, RR), // IF_cond_exp_gsfa_grr
};

} // namespace kernel_masks

using kernel_masks::kSpecializedMasks;

/**
 * Neuron-steps taken through a generic (runtime feature dispatch)
 * fallback kernel, of either family. Registered models are expected
 * to hit a compiled specialization; a non-zero count flags the
 * per-step branching cost of an out-of-table feature combination
 * (e.g. a --model-file model whose mask has no compiled kernel).
 */
telemetry::Counter &fallbackCounter();

/** One population's step kernel. */
template <typename Fn>
struct KernelChoice
{
    Fn step;
    /** True iff a compile-time specialized instantiation was found. */
    bool specialized;
    KernelLevel level;
};

/**
 * Pick the step kernel of one family for a feature set, once per
 * population, at activeKernelLevel(). `Family` names the function
 * type `Fn`, a `specialized<Mask>` array of one Fn per KernelLevel
 * for every mask of kSpecializedMasks, and a `generic` array of the
 * runtime-query kernels that cover every other mask.
 */
template <typename Family>
KernelChoice<typename Family::Fn>
selectKernel(FeatureSet features)
{
    static constexpr auto table =
        []<size_t... I>(std::index_sequence<I...>) {
            return std::array{
                Family::template specialized<kSpecializedMasks[I]>...};
        }(std::make_index_sequence<std::size(kSpecializedMasks)>{});
    const KernelLevel level = activeKernelLevel();
    const auto l = static_cast<size_t>(level);
    for (size_t m = 0; m < table.size(); ++m) {
        if (kSpecializedMasks[m] == features.raw())
            return {table[m][l], true, level};
    }
    return {Family::generic[l], false, level};
}

} // namespace flexon

#endif // FLEXON_FEATURES_KERNEL_LEVEL_HH
