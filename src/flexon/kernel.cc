#include "flexon/kernel.hh"

#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <utility>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/health.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "fixed/fast_exp.hh"

namespace flexon {

void
PopulationSoA::resize(size_t n, size_t numSynapseTypes)
{
    count = n;
    numTypes = numSynapseTypes == 0 ? 1 : numSynapseTypes;
    v.assign(n, Fix::zero());
    w.assign(n, Fix::zero());
    r.assign(n, Fix::zero());
    preResetV.assign(n, Fix::zero());
    y.assign(n * numTypes, Fix::zero());
    g.assign(n * numTypes, Fix::zero());
    cnt.assign(n, 0);
}

void
PopulationSoA::reset()
{
    resize(count, numTypes);
}

FlexonState
FlexonNeuronView::state() const
{
    flexon_assert(idx_ < soa_->count);
    FlexonState s;
    s.v = soa_->v[idx_];
    s.w = soa_->w[idx_];
    s.r = soa_->r[idx_];
    s.cnt = soa_->cnt[idx_];
    for (size_t t = 0; t < soa_->numTypes && t < maxSynapseTypes; ++t) {
        s.y[t] = soa_->y[t * soa_->count + idx_];
        s.g[t] = soa_->g[t * soa_->count + idx_];
    }
    return s;
}

namespace {

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

/** Runtime feature query for the generic fallback kernel. */
struct RuntimeFeatures
{
    uint16_t mask;
    bool
    has(Feature f) const
    {
        return (mask >> static_cast<uint16_t>(f)) & 1u;
    }
};

/**
 * The input stream: reference-unit doubles converted to the hardware
 * convention inside the kernel (scale by epsilon_m; CUB merges all
 * synapse types into one signed input). Refractory-blocked neurons
 * and all-zero slots skip the fromDouble/multiply entirely —
 * bit-exact, since Fix::fromDouble(0.0) * scale == Fix::zero() and
 * blocked neurons see a zeroed input bus (Equation 7).
 */
struct FusedInput
{
    const double *p; ///< population base, stride maxSynapseTypes
    Fix inputScale;

    /**
     * Bit-exact scaling with a saturation tap: reports when the
     * double->Fix conversion or the scaled product pins at a
     * representation rail. The intermediate check matters because an
     * inputScale <= 1 can pull a railed conversion back inside the
     * range, hiding the clip from a product-only check.
     */
    Fix
    scaled(double d) const
    {
        const Fix w = Fix::fromDouble(d);
        const Fix f = w * inputScale;
        if (w.raw() == Fix::rawMax || w.raw() == Fix::rawMin ||
            f.raw() == Fix::rawMax || f.raw() == Fix::rawMin)
            health::noteFixSaturation();
        return f;
    }

    Fix
    get(size_t i, size_t t, bool blocked) const
    {
        if (blocked)
            return Fix::zero();
        const double d = p[i * maxSynapseTypes + t];
        return d == 0.0 ? Fix::zero() : scaled(d);
    }

    Fix
    cub(size_t i, bool blocked) const
    {
        if (blocked)
            return Fix::zero();
        const double *row = p + i * maxSynapseTypes;
        double sum = 0.0;
        for (size_t s = 0; s < maxSynapseTypes; ++s)
            sum += row[s];
        return sum == 0.0 ? Fix::zero() : scaled(sum);
    }
};

/**
 * The scalar step body, in the exact Fix operation order of
 * FlexonNeuron::step (the Table V microcode order) — which is what
 * makes specialized, generic, and scalar paths bit-identical. The
 * vector levels' stepLanes (kernel_lanes.inc) follows the same order
 * lane by lane and leaves the tail of each slice to this body. With a
 * StaticFeatures query the feature branches fold away at compile time
 * and only the population's datapaths remain.
 */
template <typename FQ>
inline void
stepRange(FQ f, const KernelArgs &a, size_t begin, size_t end)
{
    const FlexonConfig &c = *a.config;
    const FlexonConstants &k = c.consts;
    const FusedInput in{a.refInput, c.inputScale};
    PopulationSoA &s = *a.soa;
    const size_t nTypes = c.numSynapseTypes;
    const bool conductance =
        f.has(Feature::COBE) || f.has(Feature::COBA);

    for (size_t i = begin; i < end; ++i) {
        const Fix v = s.v[i]; // previous-step membrane potential

        // --- Absolute refractory gating (Equation 7).
        bool blocked = false;
        if (f.has(Feature::AR) && s.cnt[i] > 0) {
            blocked = true;
            --s.cnt[i];
        }

        Fix v_acc = Fix::zero();

        // --- Input spike accumulation (Equation 4).
        if (conductance) {
            for (size_t t = 0; t < nTypes; ++t) {
                Fix &y = s.y[t * s.count + i];
                Fix &g = s.g[t * s.count + i];
                const Fix in_t = in.get(i, t, blocked);
                if (f.has(Feature::COBA)) {
                    y = k.epsGp[t] * y + in_t;
                    const Fix tmp = k.eEpsG[t] * y;
                    g = k.epsGp[t] * g + tmp;
                } else {
                    g = k.epsGp[t] * g + in_t;
                }
                if (f.has(Feature::REV)) {
                    const Fix tmp = k.minusOne * v + k.vG[t];
                    v_acc += tmp * g;
                } else {
                    v_acc += g;
                }
            }
        }

        // --- Spike-triggered current (Equation 6) / relative
        // refractory (Equation 8).
        if (f.has(Feature::SBT)) {
            const Fix tmp = k.epsMA * v + k.negEpsMAvW;
            s.w[i] = k.epsWp * s.w[i] + tmp;
            v_acc += s.w[i];
        } else if (f.has(Feature::ADT)) {
            s.w[i] = k.epsWp * s.w[i];
            v_acc += s.w[i];
        } else if (f.has(Feature::RR)) {
            s.w[i] = k.epsWp * s.w[i];
            Fix tmp = k.minusOne * v + k.vAR;
            v_acc += tmp * s.w[i];
            s.r[i] = k.epsRp * s.r[i];
            tmp = k.minusOne * v + k.vRR;
            v_acc += tmp * s.r[i];
        }

        // --- Membrane decay / spike initiation (Equations 3 and 5).
        if (f.has(Feature::LID)) {
            v_acc += k.one * v + k.vLeakNeg;
            if (f.has(Feature::CUB))
                v_acc += in.cub(i, blocked);
            if (v_acc < Fix::zero())
                v_acc = Fix::zero();
        } else if (f.has(Feature::QDI)) {
            const Fix tmp = k.epsM * v + k.qdiAdd;
            v_acc += tmp * v;
            if (f.has(Feature::CUB))
                v_acc += in.cub(i, blocked);
        } else if (f.has(Feature::EXI)) {
            v_acc += k.epsMp * v;
            const Fix e = fixedExp(k.exiInvDt * v + k.exiB);
            v_acc += k.exiScale * e;
            if (f.has(Feature::CUB))
                v_acc += in.cub(i, blocked);
        } else {
            if (f.has(Feature::CUB))
                v_acc += k.epsMp * v + in.cub(i, blocked);
            else
                v_acc += k.epsMp * v;
        }

        // --- Firing check and post-fire adjustments.
        s.preResetV[i] = v_acc;
        const bool fired = v_acc > k.threshold;
        if (fired) {
            v_acc = Fix::zero();
            if (f.has(Feature::ADT) || f.has(Feature::SBT) ||
                f.has(Feature::RR)) {
                s.w[i] -= k.b;
            }
            if (f.has(Feature::RR))
                s.r[i] -= k.qR;
            if (f.has(Feature::AR))
                s.cnt[i] = c.arSteps;
        }

        s.v[i] = c.truncateStorage ? truncateMembrane(v_acc) : v_acc;
        a.fired[i] = fired;
    }
}

/**
 * Neuron-steps taken through the generic (runtime feature dispatch)
 * fallback. Registered models are expected to hit a compiled
 * specialization; a non-zero count flags the per-step branching cost
 * of an out-of-table feature combination (e.g. a --model-file model
 * whose mask has no compiled kernel).
 */
telemetry::Counter &
fallbackCounter()
{
    static telemetry::Counter &counter =
        telemetry::Registry::global().counter(
            "kernel_fallback_steps",
            "neuron steps taken by the generic fallback kernel");
    return counter;
}

/** The scalar level: stepRange, one neuron at a time. */
namespace scalar {

template <uint16_t Mask>
void
stepSpecialized(const KernelArgs &a, size_t begin, size_t end)
{
    stepRange(StaticFeatures<Mask>{}, a, begin, end);
}

void
stepGeneric(const KernelArgs &a, size_t begin, size_t end)
{
    fallbackCounter().add(end - begin);
    stepRange(RuntimeFeatures{a.config->features.raw()}, a, begin, end);
}

} // namespace scalar

#if defined(__x86_64__)

/** Fired flags of 8 lanes: byte j of entry m is bit j of m. */
constexpr auto kFlagBytes = [] {
    std::array<uint64_t, 256> table{};
    for (size_t m = 0; m < table.size(); ++m) {
        for (size_t j = 0; j < 8; ++j)
            table[m] |= uint64_t((m >> j) & 1u) << (8 * j);
    }
    return table;
}();

// Each level below is compiled under its own `#pragma GCC target`;
// the build passes no -march. The `_maskz_`/`_mask_` intrinsic forms
// with an all-lanes mask stand in for plain forms that GCC 12's
// avx512fintrin.h flags as reading an uninitialized source under
// -Wall -Wextra.

#pragma GCC push_options
#pragma GCC target("avx2")

/** The AVX2 level: 4 x int64 lanes, masks as all-ones lanes. */
namespace avx2 {

struct Lanes
{
    static constexpr size_t width = 4;
    using Raw = __m256i;
    using Real = __m256d;
    using Mask = __m256i;

    static Raw splat(int64_t x) { return _mm256_set1_epi64x(x); }

    static Raw
    load(const Fix *p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
    }

    static void
    store(Fix *p, Raw x)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), x);
    }

    static Raw add(Raw a, Raw b) { return _mm256_add_epi64(a, b); }
    static Raw sub(Raw a, Raw b) { return _mm256_sub_epi64(a, b); }
    static Raw mul32(Raw a, Raw b) { return _mm256_mul_epi32(a, b); }

    /**
     * Arithmetic shift right by the fraction bits. AVX2 has no 64-bit
     * arithmetic shift: shift logically, then flip and subtract the
     * shifted sign bit to sign-extend.
     */
    static Raw
    shiftFrac(Raw x)
    {
        const Raw sign = splat(int64_t(1) << (63 - Fix::fracBits));
        const Raw shifted = _mm256_srli_epi64(x, Fix::fracBits);
        return _mm256_sub_epi64(_mm256_xor_si256(shifted, sign), sign);
    }

    static Raw
    min(Raw a, Raw b)
    {
        return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b));
    }

    static Raw
    max(Raw a, Raw b)
    {
        return _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(b, a));
    }

    static Mask gt(Raw a, Raw b) { return _mm256_cmpgt_epi64(a, b); }
    static Mask eq(Raw a, Raw b) { return _mm256_cmpeq_epi64(a, b); }

    static Raw
    select(Mask m, Raw a, Raw b)
    {
        return _mm256_blendv_epi8(b, a, m);
    }

    static Mask none() { return _mm256_setzero_si256(); }
    static Mask orMask(Mask a, Mask b) { return _mm256_or_si256(a, b); }
    static Mask andMask(Mask a, Mask b) { return _mm256_and_si256(a, b); }
    /** a & ~b */
    static Mask andNot(Mask a, Mask b) { return _mm256_andnot_si256(b, a); }

    static unsigned
    bits(Mask m)
    {
        return static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(m)));
    }

    static Real zeroReal() { return _mm256_setzero_pd(); }
    static Real addReal(Real a, Real b) { return _mm256_add_pd(a, b); }

    /** p[0], p[4], p[8], p[12]: one column of the [neuron][4] input. */
    static Real
    column(const double *p)
    {
        return _mm256_mask_i64gather_pd(
            _mm256_setzero_pd(), p, _mm256_setr_epi64x(0, 4, 8, 12),
            _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
    }

    /** d != 0.0, true for NaN as in C++. */
    static Mask
    nonzero(Real d)
    {
        return _mm256_castpd_si256(
            _mm256_cmp_pd(d, _mm256_setzero_pd(), _CMP_NEQ_UQ));
    }

    /**
     * Fix::fromDouble per lane. The rail compares select first, so
     * the 32-bit conversion only has to be right for lanes strictly
     * inside (rawMin, rawMax), which round into int32.
     */
    static Raw
    fromDouble(Real d)
    {
        const Real scaled =
            _mm256_mul_pd(d, _mm256_set1_pd(static_cast<double>(Fix::rawOne)));
        const Real zero = _mm256_setzero_pd();
        const Real half = _mm256_blendv_pd(
            _mm256_set1_pd(0.5), _mm256_set1_pd(-0.5),
            _mm256_cmp_pd(scaled, zero, _CMP_LT_OQ));
        const Raw rounded = _mm256_cvtepi32_epi64(
            _mm256_cvttpd_epi32(_mm256_add_pd(scaled, half)));
        const Mask high = _mm256_castpd_si256(_mm256_cmp_pd(
            scaled, _mm256_set1_pd(static_cast<double>(Fix::rawMax)),
            _CMP_GE_OQ));
        const Mask low = _mm256_castpd_si256(_mm256_cmp_pd(
            scaled, _mm256_set1_pd(static_cast<double>(Fix::rawMin)),
            _CMP_NGT_UQ));
        return select(low, splat(Fix::rawMin),
                      select(high, splat(Fix::rawMax), rounded));
    }

    /** The AR countdown: the lanes blocked this step, counters - 1. */
    static Mask
    countDown(uint32_t *cnt)
    {
        __m128i *const p = reinterpret_cast<__m128i *>(cnt);
        const __m128i c = _mm_loadu_si128(p);
        const __m128i blocked = _mm_xor_si128(
            _mm_cmpeq_epi32(c, _mm_setzero_si128()), _mm_set1_epi32(-1));
        _mm_storeu_si128(p, _mm_add_epi32(c, blocked));
        return _mm256_cvtepi32_epi64(blocked);
    }

    static void
    setWhere(uint32_t *cnt, Mask m, uint32_t value)
    {
        for (unsigned b = bits(m); b != 0; b &= b - 1)
            cnt[std::countr_zero(b)] = value;
    }
};

#include "flexon/kernel_lanes.inc"

} // namespace avx2

#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512vl")

/** The AVX-512 level: 8 x int64 lanes, masks in k registers. */
namespace avx512 {

struct Lanes
{
    static constexpr size_t width = 8;
    using Raw = __m512i;
    using Real = __m512d;
    using Mask = __mmask8;
    static constexpr Mask all = 0xff;

    static Raw splat(int64_t x) { return _mm512_set1_epi64(x); }
    static Raw load(const Fix *p) { return _mm512_loadu_si512(p); }
    static void store(Fix *p, Raw x) { _mm512_storeu_si512(p, x); }

    static Raw add(Raw a, Raw b) { return _mm512_add_epi64(a, b); }
    static Raw sub(Raw a, Raw b) { return _mm512_sub_epi64(a, b); }

    static Raw
    mul32(Raw a, Raw b)
    {
        return _mm512_maskz_mul_epi32(all, a, b);
    }

    static Raw
    shiftFrac(Raw x)
    {
        return _mm512_maskz_srai_epi64(all, x, Fix::fracBits);
    }

    static Raw min(Raw a, Raw b) { return _mm512_maskz_min_epi64(all, a, b); }
    static Raw max(Raw a, Raw b) { return _mm512_maskz_max_epi64(all, a, b); }
    static Mask gt(Raw a, Raw b) { return _mm512_cmpgt_epi64_mask(a, b); }
    static Mask eq(Raw a, Raw b) { return _mm512_cmpeq_epi64_mask(a, b); }

    static Raw
    select(Mask m, Raw a, Raw b)
    {
        return _mm512_mask_blend_epi64(m, b, a);
    }

    static Mask none() { return 0; }
    static Mask orMask(Mask a, Mask b) { return a | b; }
    static Mask andMask(Mask a, Mask b) { return a & b; }
    /** a & ~b */
    static Mask andNot(Mask a, Mask b) { return static_cast<Mask>(a & ~b); }
    static unsigned bits(Mask m) { return m; }

    static Real zeroReal() { return _mm512_setzero_pd(); }
    static Real addReal(Real a, Real b) { return _mm512_add_pd(a, b); }

    /** p[0], p[4], ..., p[28]: one column of the [neuron][4] input. */
    static Real
    column(const double *p)
    {
        return _mm512_mask_i64gather_pd(
            _mm512_setzero_pd(), all,
            _mm512_setr_epi64(0, 4, 8, 12, 16, 20, 24, 28), p, 8);
    }

    /** d != 0.0, true for NaN as in C++. */
    static Mask
    nonzero(Real d)
    {
        return _mm512_cmp_pd_mask(d, _mm512_setzero_pd(), _CMP_NEQ_UQ);
    }

    /** Fix::fromDouble per lane; NaN meets the rawMin rail. */
    static Raw
    fromDouble(Real d)
    {
        const Real scaled =
            _mm512_mul_pd(d, _mm512_set1_pd(static_cast<double>(Fix::rawOne)));
        const Mask negative =
            _mm512_cmp_pd_mask(scaled, _mm512_setzero_pd(), _CMP_LT_OQ);
        const Real half = _mm512_mask_blend_pd(
            negative, _mm512_set1_pd(0.5), _mm512_set1_pd(-0.5));
        const Raw rounded =
            _mm512_maskz_cvttpd_epi64(all, _mm512_add_pd(scaled, half));
        const Mask high = _mm512_cmp_pd_mask(
            scaled, _mm512_set1_pd(static_cast<double>(Fix::rawMax)),
            _CMP_GE_OQ);
        const Mask low = _mm512_cmp_pd_mask(
            scaled, _mm512_set1_pd(static_cast<double>(Fix::rawMin)),
            _CMP_NGT_UQ);
        return select(low, splat(Fix::rawMin),
                      select(high, splat(Fix::rawMax), rounded));
    }

    /** The AR countdown: the lanes blocked this step, counters - 1. */
    static Mask
    countDown(uint32_t *cnt)
    {
        const __m256i c = _mm256_loadu_si256(reinterpret_cast<__m256i *>(cnt));
        const Mask blocked = _mm256_test_epi32_mask(c, c);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(cnt),
            _mm256_mask_sub_epi32(c, blocked, c, _mm256_set1_epi32(1)));
        return blocked;
    }

    static void
    setWhere(uint32_t *cnt, Mask m, uint32_t value)
    {
        _mm256_mask_storeu_epi32(cnt, m,
                                 _mm256_set1_epi32(static_cast<int>(value)));
    }
};

#include "flexon/kernel_lanes.inc"

} // namespace avx512

#pragma GCC pop_options

#else

// Only the scalar level exists off x86-64.
namespace avx2 = scalar;
namespace avx512 = scalar;

#endif

constexpr uint16_t
featureBit(Feature f)
{
    return static_cast<uint16_t>(1u << static_cast<uint16_t>(f));
}

template <typename... Fs>
constexpr uint16_t
featureMask(Fs... fs)
{
    return static_cast<uint16_t>((featureBit(fs) | ... | 0u));
}

using enum Feature;

/**
 * The masks with compiled specializations: the Table III model
 * combinations (which cover every Table I network) plus the
 * single-feature building blocks the kernel-equivalence suite
 * exercises. Anything else falls back to the generic kernel.
 */
constexpr uint16_t kSpecializedMasks[] = {
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

/** One kernel per KernelLevel, indexed by the level. */
using LevelKernels = std::array<StepKernelFn, 3>;

struct KernelEntry
{
    uint16_t mask;
    LevelKernels step;
};

template <uint16_t Mask>
constexpr KernelEntry
kernelEntry()
{
    return {Mask,
            {&scalar::stepSpecialized<Mask>, &avx2::stepSpecialized<Mask>,
             &avx512::stepSpecialized<Mask>}};
}

template <size_t... I>
constexpr std::array<KernelEntry, sizeof...(I)>
makeKernelTable(std::index_sequence<I...>)
{
    return {kernelEntry<kSpecializedMasks[I]>()...};
}

constexpr auto kKernelTable = makeKernelTable(
    std::make_index_sequence<std::size(kSpecializedMasks)>{});

constexpr LevelKernels kGenericKernels = {
    &scalar::stepGeneric, &avx2::stepGeneric, &avx512::stepGeneric};

KernelLevel
detectKernelLevel()
{
    for (KernelLevel level : {KernelLevel::Avx512, KernelLevel::Avx2}) {
        if (cpuHasKernelLevel(level))
            return level;
    }
    return KernelLevel::Scalar;
}

/** The level selectStepKernel builds; the best one unless a test
 * chose another through setKernelLevel. */
std::atomic<KernelLevel> &
activeLevel()
{
    static std::atomic<KernelLevel> level{bestKernelLevel()};
    return level;
}

} // namespace

const char *
kernelLevelName(KernelLevel level)
{
    switch (level) {
      case KernelLevel::Scalar: return "scalar";
      case KernelLevel::Avx2: return "avx2";
      case KernelLevel::Avx512: return "avx512";
    }
    return "?";
}

bool
cpuHasKernelLevel(KernelLevel level)
{
#if defined(__x86_64__)
    __builtin_cpu_init();
    switch (level) {
      case KernelLevel::Scalar: return true;
      case KernelLevel::Avx2: return __builtin_cpu_supports("avx2");
      case KernelLevel::Avx512:
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512dq") &&
               __builtin_cpu_supports("avx512vl");
    }
    return false;
#else
    return level == KernelLevel::Scalar;
#endif
}

KernelLevel
bestKernelLevel()
{
    static const KernelLevel best = detectKernelLevel();
    return best;
}

bool
setKernelLevel(KernelLevel level)
{
    if (!cpuHasKernelLevel(level))
        return false;
    activeLevel().store(level, std::memory_order_relaxed);
    return true;
}

SelectedKernel
selectStepKernel(FeatureSet features)
{
    const KernelLevel level = activeLevel().load(std::memory_order_relaxed);
    const auto l = static_cast<size_t>(level);
    const uint16_t mask = features.raw();
    for (const KernelEntry &entry : kKernelTable) {
        if (entry.mask == mask)
            return {entry.step[l], true, level};
    }
    return {kGenericKernels[l], false, level};
}

} // namespace flexon
