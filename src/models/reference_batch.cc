#include "models/reference_batch.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "common/text_number.hh"
#include "features/lanes.hh"

namespace flexon {

/** One kernel call: a batch's arrays and one slice's streams. */
struct ReferenceStepArgs
{
    const NeuronParams *params;
    size_t count; ///< neurons in the batch: the y/g type stride
    size_t types; ///< synapse types stepped
    double *v;
    double *w;
    double *r;
    double *preResetV;
    double *y; ///< [type][neuron]
    double *g; ///< [type][neuron]
    uint32_t *cnt;
    const double *thrOffset; ///< per-neuron threshold offsets, or null
    /** Row-major [neuron][maxSynapseTypes], at the batch's base. */
    const double *input;
    uint8_t *fired; ///< at the batch's base
};

namespace {

/**
 * The scalar step body, in the exact operation order of
 * ReferenceNeuron::step — which is what makes every kernel
 * bit-identical to the golden model. The vector levels' stepLanes
 * (reference_lanes.inc) follows the same order lane by lane and
 * leaves the tail of each slice to this body. With a StaticFeatures
 * query the feature branches fold away at compile time.
 */
template <typename FQ>
inline void
stepRange(FQ f, const ReferenceStepArgs &a, size_t begin, size_t end)
{
    const NeuronParams &p = *a.params;
    const bool wFeature = f.has(Feature::ADT) || f.has(Feature::SBT) ||
                          f.has(Feature::RR);
    const double threshold = p.threshold();

    for (size_t i = begin; i < end; ++i) {
        const double v_prev = a.v[i];
        const double *const in_row = a.input + i * maxSynapseTypes;

        // --- Refractory gating (Equation 7).
        const bool blocked = f.has(Feature::AR) && a.cnt[i] > 0;
        if (blocked)
            --a.cnt[i];

        // --- Input spike accumulation (Equation 4), in the exact
        // operation order of ReferenceNeuron::step.
        double acc = 0.0;
        for (size_t t = 0; t < a.types; ++t) {
            double &y = a.y[t * a.count + i];
            double &g = a.g[t * a.count + i];
            const double in = blocked ? 0.0 : in_row[t];
            const double eps_g = p.syn[t].epsG;

            if (f.has(Feature::COBA)) {
                y = (1.0 - eps_g) * y + in;
                g = (1.0 - eps_g) * g + M_E * eps_g * y;
            } else if (f.has(Feature::COBE)) {
                g = (1.0 - eps_g) * g + in;
            } else {
                g = in;
            }

            const double v_rev =
                f.has(Feature::REV) ? (p.syn[t].vG - v_prev) : 1.0;
            acc += v_rev * g;
        }

        // --- Membrane decay / spike initiation (Equations 3 and 5).
        double leak = 0.0;
        if (f.has(Feature::EXI)) {
            leak = -v_prev +
                   p.deltaT * std::exp((v_prev - 1.0) / p.deltaT);
        } else if (f.has(Feature::QDI)) {
            leak = (-v_prev) * (p.vCrit - v_prev);
        } else if (f.has(Feature::EXD)) {
            leak = -v_prev;
        }

        // --- Spike-triggered current (Equation 6) / relative
        // refractory (Equation 8).
        double w_term = 0.0;
        double r_term = 0.0;
        if (f.has(Feature::SBT)) {
            a.w[i] = (1.0 - p.epsW) * a.w[i] +
                     p.epsM * p.a * (v_prev - p.vW);
            w_term = a.w[i];
        } else if (f.has(Feature::ADT)) {
            a.w[i] = (1.0 - p.epsW) * a.w[i];
            w_term = a.w[i];
        } else if (f.has(Feature::RR)) {
            a.w[i] = (1.0 - p.epsW) * a.w[i];
            a.r[i] = (1.0 - p.epsR) * a.r[i];
            w_term = a.w[i] * (p.vAR - v_prev);
            r_term = a.r[i] * (p.vRR - v_prev);
        }

        // --- Membrane potential update.
        double v_next;
        if (f.has(Feature::LID)) {
            v_next = std::max(0.0, v_prev + acc - p.vLeak);
        } else {
            v_next =
                v_prev + p.epsM * (leak + acc) + w_term + r_term;
        }

        // --- Firing check.
        a.preResetV[i] = v_next;
        const double th =
            a.thrOffset ? threshold + a.thrOffset[i] : threshold;
        const bool spike = v_next > th;
        if (spike) {
            v_next = 0.0;
            if (wFeature)
                a.w[i] -= p.b;
            if (f.has(Feature::RR))
                a.r[i] -= p.qR;
            if (f.has(Feature::AR))
                a.cnt[i] = p.arSteps;
        }
        a.v[i] = v_next;
        a.fired[i] = spike;
    }
}

/** The scalar level: stepRange, one neuron at a time. */
namespace scalar {

template <uint16_t Mask>
void
stepSpecialized(const ReferenceStepArgs &a, size_t begin, size_t end)
{
    stepRange(StaticFeatures<Mask>{}, a, begin, end);
}

void
stepGeneric(const ReferenceStepArgs &a, size_t begin, size_t end)
{
    fallbackCounter().add(end - begin);
    stepRange(RuntimeFeatures{a.params->features.raw()}, a, begin, end);
}

} // namespace scalar

#if defined(__x86_64__)

// Each level below is compiled under its own `#pragma GCC target`,
// over that level's features/lanes.hh primitives. This file builds
// with -ffp-contract=off: inside the AVX-512 region GCC would
// otherwise fuse a multiply and an add, vector or scalar, into one
// FMA, which rounds once where the golden model rounds twice.

using simd::kFlagBytes;

#pragma GCC push_options
#pragma GCC target("avx2")

/** The AVX2 level: 4 doubles per vector. */
namespace avx2 {

using Lanes = simd::avx2::Lanes;

#include "models/reference_lanes.inc"

} // namespace avx2

#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512vl")

/** The AVX-512 level: 8 doubles per vector. */
namespace avx512 {

using Lanes = simd::avx512::Lanes;

#include "models/reference_lanes.inc"

} // namespace avx512

#pragma GCC pop_options

#else

// Only the scalar level exists off x86-64.
namespace avx2 = scalar;
namespace avx512 = scalar;

#endif

/** The double kernel family for selectKernel. */
struct ReferenceKernels
{
    using Fn = ReferenceStepFn;

    template <uint16_t Mask>
    static constexpr std::array<Fn, 3> specialized = {
        &scalar::stepSpecialized<Mask>, &avx2::stepSpecialized<Mask>,
        &avx512::stepSpecialized<Mask>};

    static constexpr std::array<Fn, 3> generic = {
        &scalar::stepGeneric, &avx2::stepGeneric, &avx512::stepGeneric};
};

} // namespace

ReferenceBatch::ReferenceBatch(const NeuronParams &params, size_t count)
    : params_(params), count_(count),
      stride_(params.numSynapseTypes == 0 ? 1 : params.numSynapseTypes),
      kernel_(selectKernel<ReferenceKernels>(params.features))
{
    const std::string err = params_.validate();
    if (!err.empty())
        fatal("invalid neuron parameters: %s", err.c_str());
    flexon_assert(count > 0);
    v_.assign(count, 0.0);
    w_.assign(count, 0.0);
    r_.assign(count, 0.0);
    preResetV_.assign(count, 0.0);
    y_.assign(count * stride_, 0.0);
    g_.assign(count * stride_, 0.0);
    cnt_.assign(count, 0);
}

void
ReferenceBatch::step(const double *input, uint8_t *fired, size_t begin,
                     size_t end)
{
    const ReferenceStepArgs args{
        .params = &params_,
        .count = count_,
        .types = stride_,
        .v = v_.data(),
        .w = w_.data(),
        .r = r_.data(),
        .preResetV = preResetV_.data(),
        .y = y_.data(),
        .g = g_.data(),
        .cnt = cnt_.data(),
        .thrOffset = thrOffset_.empty() ? nullptr : thrOffset_.data(),
        .input = input,
        .fired = fired,
    };
    kernel_.step(args, begin, end);
}

NeuronState
ReferenceBatch::state(size_t idx) const
{
    flexon_assert(idx < count_);
    NeuronState s;
    s.v = v_[idx];
    s.w = w_[idx];
    s.r = r_[idx];
    s.cnt = cnt_[idx];
    for (size_t t = 0; t < stride_ && t < maxSynapseTypes; ++t) {
        s.y[t] = y_[t * count_ + idx];
        s.g[t] = g_[t * count_ + idx];
    }
    return s;
}

void
ReferenceBatch::setThresholdOffset(size_t idx, double offset)
{
    flexon_assert(idx < count_);
    if (thrOffset_.empty())
        thrOffset_.assign(count_, 0.0);
    thrOffset_[idx] = offset;
}

void
ReferenceBatch::reset()
{
    std::fill(thrOffset_.begin(), thrOffset_.end(), 0.0);
    std::fill(v_.begin(), v_.end(), 0.0);
    std::fill(w_.begin(), w_.end(), 0.0);
    std::fill(r_.begin(), r_.end(), 0.0);
    std::fill(preResetV_.begin(), preResetV_.end(), 0.0);
    std::fill(y_.begin(), y_.end(), 0.0);
    std::fill(g_.begin(), g_.end(), 0.0);
    std::fill(cnt_.begin(), cnt_.end(), 0);
}

namespace {

void
writeArray(std::ostream &os, const std::vector<double> &a)
{
    for (const double x : a)
        os << ' ' << x;
}

void
readArray(std::istream &is, std::vector<double> &a)
{
    for (double &x : a)
        readDouble(is, x);
}

} // namespace

// The checkpoint keeps y and g neuron-major, the layout they had
// before the kernels made them type-major, so the `batch` line is
// unchanged and older checkpoints restore.

void
ReferenceBatch::saveState(std::ostream &os) const
{
    os << "batch " << count_ << ' ' << stride_;
    writeArray(os, v_);
    writeArray(os, w_);
    writeArray(os, r_);
    writeArray(os, preResetV_);
    for (const std::vector<double> *a : {&y_, &g_}) {
        for (size_t i = 0; i < count_; ++i) {
            for (size_t t = 0; t < stride_; ++t)
                os << ' ' << (*a)[t * count_ + i];
        }
    }
    for (const uint32_t c : cnt_)
        os << ' ' << c;
    os << '\n';
}

void
ReferenceBatch::loadState(std::istream &is)
{
    std::string tag;
    size_t count = 0, stride = 0;
    is >> tag >> count >> stride;
    if (tag != "batch" || !is || count != count_ || stride != stride_)
        fatal("checkpoint batch shape mismatch (expected %zu x %zu)",
              count_, stride_);
    readArray(is, v_);
    readArray(is, w_);
    readArray(is, r_);
    readArray(is, preResetV_);
    for (std::vector<double> *a : {&y_, &g_}) {
        for (size_t i = 0; i < count_; ++i) {
            for (size_t t = 0; t < stride_; ++t)
                readDouble(is, (*a)[t * count_ + i]);
        }
    }
    for (uint32_t &c : cnt_)
        is >> c;
    if (!is)
        fatal("truncated reference-batch state in checkpoint");
}

} // namespace flexon
