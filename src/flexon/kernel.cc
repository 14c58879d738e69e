#include "flexon/kernel.hh"

#include <array>
#include <bit>
#include <cstring>

#include "common/health.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "features/lanes.hh"
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

// Each level below is compiled under its own `#pragma GCC target`,
// over that level's features/lanes.hh primitives.

using simd::kFlagBytes;

#pragma GCC push_options
#pragma GCC target("avx2")

/** The AVX2 level: 4 x int64 lanes, masks as all-ones lanes. */
namespace avx2 {

using Lanes = simd::avx2::Lanes;

#include "flexon/kernel_lanes.inc"

} // namespace avx2

#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512vl")

/** The AVX-512 level: 8 x int64 lanes, masks in k registers. */
namespace avx512 {

using Lanes = simd::avx512::Lanes;

#include "flexon/kernel_lanes.inc"

} // namespace avx512

#pragma GCC pop_options

#else

// Only the scalar level exists off x86-64.
namespace avx2 = scalar;
namespace avx512 = scalar;

#endif

/** The Q10.22 kernel family for selectKernel. */
struct FlexonKernels
{
    using Fn = StepKernelFn;

    template <uint16_t Mask>
    static constexpr std::array<Fn, 3> specialized = {
        &scalar::stepSpecialized<Mask>, &avx2::stepSpecialized<Mask>,
        &avx512::stepSpecialized<Mask>};

    static constexpr std::array<Fn, 3> generic = {
        &scalar::stepGeneric, &avx2::stepGeneric, &avx512::stepGeneric};
};

} // namespace

SelectedKernel
selectStepKernel(FeatureSet features)
{
    return selectKernel<FlexonKernels>(features);
}

} // namespace flexon
