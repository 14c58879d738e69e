#include "flexon/kernel.hh"

#include <array>
#include <utility>

#include "common/health.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "fixed/fast_exp.hh"

namespace flexon {

void
PopulationSoA::resize(size_t n, size_t numSynapseTypes)
{
    count = n;
    synStride = numSynapseTypes == 0 ? 1 : numSynapseTypes;
    v.assign(n, Fix::zero());
    w.assign(n, Fix::zero());
    r.assign(n, Fix::zero());
    preResetV.assign(n, Fix::zero());
    y.assign(n * synStride, Fix::zero());
    g.assign(n * synStride, Fix::zero());
    cnt.assign(n, 0);
}

void
PopulationSoA::reset()
{
    resize(count, synStride);
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
    const size_t stride = soa_->synStride;
    for (size_t t = 0; t < stride && t < maxSynapseTypes; ++t) {
        s.y[t] = soa_->y[idx_ * stride + t];
        s.g[t] = soa_->g[idx_ * stride + t];
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
 * The one step body every kernel shares, in the exact Fix operation
 * order of FlexonNeuron::step (the Table V microcode order) — which
 * is what makes specialized, generic, and scalar paths bit-identical.
 * With a StaticFeatures query the feature branches fold away at
 * compile time and only the population's datapaths remain.
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
    const size_t stride = s.synStride;
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
            Fix *const y = s.y.data() + i * stride;
            Fix *const g = s.g.data() + i * stride;
            for (size_t t = 0; t < nTypes; ++t) {
                const Fix in_t = in.get(i, t, blocked);
                if (f.has(Feature::COBA)) {
                    y[t] = k.epsGp[t] * y[t] + in_t;
                    const Fix tmp = k.eEpsG[t] * y[t];
                    g[t] = k.epsGp[t] * g[t] + tmp;
                } else {
                    g[t] = k.epsGp[t] * g[t] + in_t;
                }
                if (f.has(Feature::REV)) {
                    const Fix tmp = k.minusOne * v + k.vG[t];
                    v_acc += tmp * g[t];
                } else {
                    v_acc += g[t];
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

template <uint16_t Mask>
void
stepSpecialized(const KernelArgs &a, size_t begin, size_t end)
{
    stepRange(StaticFeatures<Mask>{}, a, begin, end);
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

void
stepGeneric(const KernelArgs &a, size_t begin, size_t end)
{
    fallbackCounter().add(end - begin);
    stepRange(RuntimeFeatures{a.config->features.raw()}, a, begin, end);
}

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

struct KernelEntry
{
    uint16_t mask;
    StepKernelFn step;
};

template <size_t... I>
constexpr std::array<KernelEntry, sizeof...(I)>
makeKernelTable(std::index_sequence<I...>)
{
    return {KernelEntry{kSpecializedMasks[I],
                        &stepSpecialized<kSpecializedMasks[I]>}...};
}

constexpr auto kKernelTable = makeKernelTable(
    std::make_index_sequence<std::size(kSpecializedMasks)>{});

} // namespace

SelectedKernel
selectStepKernel(FeatureSet features)
{
    const uint16_t mask = features.raw();
    for (const KernelEntry &entry : kKernelTable) {
        if (entry.mask == mask)
            return {entry.step, true};
    }
    return {&stepGeneric, false};
}

} // namespace flexon
