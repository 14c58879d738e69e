/**
 * @file
 * The vector primitives both families of population step kernels are
 * written over: one `Lanes` struct per vector KernelLevel
 * (features/kernel_level.hh), each compiled under its own
 * `#pragma GCC target`, and the fired-flag table their lane bodies
 * store through. The build passes no -march, so a kernel source
 * opens the same target region, names that level's `Lanes` as
 * `Lanes`, and includes its lane body there.
 *
 * Each Lanes holds Lanes::width neurons: Raw is that many int64 (raw
 * Q10.22 values), Real as many doubles, Mask one bit per lane. Every
 * double operation rounds each lane exactly as the scalar SSE2
 * operation does; none fuses a multiply into an add.
 */

#ifndef FLEXON_FEATURES_LANES_HH
#define FLEXON_FEATURES_LANES_HH

#if defined(__x86_64__)

#include <array>
#include <bit>
#include <cstdint>

#include <immintrin.h>

#include "fixed/fixed_point.hh"

namespace flexon::simd {

/** Fired flags of 8 lanes: byte j of entry m is bit j of m. */
inline constexpr auto kFlagBytes = [] {
    std::array<uint64_t, 256> table{};
    for (size_t m = 0; m < table.size(); ++m) {
        for (size_t j = 0; j < 8; ++j)
            table[m] |= uint64_t((m >> j) & 1u) << (8 * j);
    }
    return table;
}();

// The `_maskz_`/`_mask_` intrinsic forms with an all-lanes mask stand
// in for plain forms that GCC 12's avx512fintrin.h flags as reading an
// uninitialized source under -Wall -Wextra.

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
    static Real splatReal(double x) { return _mm256_set1_pd(x); }
    static Real loadReal(const double *p) { return _mm256_loadu_pd(p); }
    static void storeReal(double *p, Real x) { _mm256_storeu_pd(p, x); }
    static Real addReal(Real a, Real b) { return _mm256_add_pd(a, b); }
    static Real subReal(Real a, Real b) { return _mm256_sub_pd(a, b); }
    static Real mulReal(Real a, Real b) { return _mm256_mul_pd(a, b); }

    /** a > b, false for NaN as in C++. */
    static Mask
    gtReal(Real a, Real b)
    {
        return _mm256_castpd_si256(_mm256_cmp_pd(a, b, _CMP_GT_OQ));
    }

    static Real
    selectReal(Mask m, Real a, Real b)
    {
        return _mm256_blendv_pd(b, a, _mm256_castsi256_pd(m));
    }

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
    static Real splatReal(double x) { return _mm512_set1_pd(x); }
    static Real loadReal(const double *p) { return _mm512_loadu_pd(p); }
    static void storeReal(double *p, Real x) { _mm512_storeu_pd(p, x); }
    static Real addReal(Real a, Real b) { return _mm512_add_pd(a, b); }
    static Real subReal(Real a, Real b) { return _mm512_sub_pd(a, b); }
    static Real mulReal(Real a, Real b) { return _mm512_mul_pd(a, b); }

    /** a > b, false for NaN as in C++. */
    static Mask
    gtReal(Real a, Real b)
    {
        return _mm512_cmp_pd_mask(a, b, _CMP_GT_OQ);
    }

    static Real
    selectReal(Mask m, Real a, Real b)
    {
        return _mm512_mask_blend_pd(m, b, a);
    }

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

} // namespace avx512

#pragma GCC pop_options

} // namespace flexon::simd

#endif // defined(__x86_64__)

#endif // FLEXON_FEATURES_LANES_HH
