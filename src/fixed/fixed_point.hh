/**
 * @file
 * Signed saturating fixed-point arithmetic.
 *
 * Flexon stores per-neuron values in a 32-bit fixed-point representation
 * with 10 bits (including sign) for the integer portion and 22 fraction
 * bits (Section IV-B1 of the paper). Both the baseline and the spatially
 * folded Flexon models perform every arithmetic operation through this
 * type, which is what makes their bit-exact equivalence meaningful.
 *
 * Semantics chosen to model hardware datapaths:
 *  - multiplication truncates toward negative infinity (arithmetic
 *    right shift of the full-width product), as a shifter would;
 *  - addition/subtraction/multiplication saturate at the representable
 *    range instead of wrapping, modelling saturating adders;
 *  - conversion from double rounds to nearest.
 */

#ifndef FLEXON_FIXED_FIXED_POINT_HH
#define FLEXON_FIXED_FIXED_POINT_HH

#include <cstdint>
#include <limits>
#include <type_traits>

namespace flexon {

/**
 * A signed fixed-point number with IntBits integer bits (including the
 * sign bit) and FracBits fraction bits, stored in an int64_t raw field
 * saturated to the (IntBits + FracBits)-bit two's-complement range.
 */
template <int IntBits, int FracBits>
class FixedPoint
{
    static_assert(IntBits >= 1, "need at least a sign bit");
    static_assert(FracBits >= 0, "fraction bits must be non-negative");
    static_assert(IntBits + FracBits <= 48,
                  "raw values must fit an int64 with headroom for sums");

  public:
    static constexpr int intBits = IntBits;
    static constexpr int fracBits = FracBits;
    static constexpr int totalBits = IntBits + FracBits;

    /** Smallest representable raw value. */
    static constexpr int64_t rawMin = -(int64_t(1) << (totalBits - 1));
    /** Largest representable raw value. */
    static constexpr int64_t rawMax = (int64_t(1) << (totalBits - 1)) - 1;
    /** Raw value of 1.0. */
    static constexpr int64_t rawOne = int64_t(1) << FracBits;

    constexpr FixedPoint() = default;

    /** Build from a raw (already scaled) integer value, saturating. */
    static constexpr FixedPoint
    fromRaw(int64_t raw)
    {
        FixedPoint f;
        f.raw_ = saturate(raw);
        return f;
    }

    /**
     * Convert from double, rounding to nearest, saturating. NaN maps
     * to rawMin, the value x86 conversion hardware gives it.
     */
    static FixedPoint
    fromDouble(double v)
    {
        const double scaled = v * static_cast<double>(rawOne);
        if (scaled >= static_cast<double>(rawMax))
            return fromRaw(rawMax);
        if (!(scaled > static_cast<double>(rawMin))) // also NaN
            return fromRaw(rawMin);
        const double rounded =
            scaled >= 0.0 ? scaled + 0.5 : scaled - 0.5;
        return fromRaw(static_cast<int64_t>(rounded));
    }

    /** The fixed-point constant 0. */
    static constexpr FixedPoint zero() { return fromRaw(0); }
    /** The fixed-point constant 1.0. */
    static constexpr FixedPoint one() { return fromRaw(rawOne); }

    constexpr int64_t raw() const { return raw_; }

    double
    toDouble() const
    {
        return static_cast<double>(raw_) / static_cast<double>(rawOne);
    }

    /** Saturating addition (models a saturating adder). */
    friend constexpr FixedPoint
    operator+(FixedPoint a, FixedPoint b)
    {
        return fromRaw(a.raw_ + b.raw_);
    }

    /** Saturating subtraction. */
    friend constexpr FixedPoint
    operator-(FixedPoint a, FixedPoint b)
    {
        return fromRaw(a.raw_ - b.raw_);
    }

    /** Negation (saturates for rawMin). */
    constexpr FixedPoint operator-() const { return fromRaw(-raw_); }

    /**
     * Saturating multiplication; the double-width product is shifted
     * right arithmetically (truncation toward negative infinity), as a
     * hardware multiplier followed by a fixed shifter would behave.
     * Raw values of a format up to 32 bits are at most 2^31 in
     * magnitude, so their product (at most 2^62) fits an int64_t;
     * wider formats form it in 128 bits.
     */
    friend constexpr FixedPoint
    operator*(FixedPoint a, FixedPoint b)
    {
        using Wide =
            std::conditional_t<(totalBits <= 32), int64_t, __int128>;
        const Wide shifted =
            (static_cast<Wide>(a.raw_) * static_cast<Wide>(b.raw_)) >>
            FracBits;
        if (shifted > static_cast<Wide>(rawMax))
            return fromRaw(rawMax);
        if (shifted < static_cast<Wide>(rawMin))
            return fromRaw(rawMin);
        return fromRaw(static_cast<int64_t>(shifted));
    }

    FixedPoint &operator+=(FixedPoint o) { return *this = *this + o; }
    FixedPoint &operator-=(FixedPoint o) { return *this = *this - o; }
    FixedPoint &operator*=(FixedPoint o) { return *this = *this * o; }

    friend constexpr bool
    operator==(FixedPoint a, FixedPoint b)
    {
        return a.raw_ == b.raw_;
    }
    friend constexpr bool
    operator!=(FixedPoint a, FixedPoint b)
    {
        return a.raw_ != b.raw_;
    }
    friend constexpr bool
    operator<(FixedPoint a, FixedPoint b)
    {
        return a.raw_ < b.raw_;
    }
    friend constexpr bool
    operator<=(FixedPoint a, FixedPoint b)
    {
        return a.raw_ <= b.raw_;
    }
    friend constexpr bool
    operator>(FixedPoint a, FixedPoint b)
    {
        return a.raw_ > b.raw_;
    }
    friend constexpr bool
    operator>=(FixedPoint a, FixedPoint b)
    {
        return a.raw_ >= b.raw_;
    }

    /** Value of one least-significant bit. */
    static constexpr double
    epsilon()
    {
        return 1.0 / static_cast<double>(rawOne);
    }

  private:
    static constexpr int64_t
    saturate(int64_t raw)
    {
        if (raw > rawMax)
            return rawMax;
        if (raw < rawMin)
            return rawMin;
        return raw;
    }

    int64_t raw_ = 0;
};

/**
 * The Flexon word format: 32-bit fixed point, 10 integer bits (including
 * sign) and 22 fraction bits (Section IV-B1).
 */
using Fix = FixedPoint<10, 22>;

/**
 * Storage truncation for the membrane potential (Section IV-B1,
 * "Truncate"). With shift & scale enforcing v0 = 0 and theta = 1.0 the
 * stored membrane potential lies in [0, 1), so the integer portion can
 * be dropped: 22 bits per neuron instead of 32 (a 31.3 % reduction).
 *
 * Values outside [0, 1) are clamped on store; the datapath only ever
 * stores post-reset potentials, which satisfy the invariant.
 */
inline Fix
truncateMembrane(Fix v)
{
    if (v.raw() < 0)
        return Fix::zero();
    if (v.raw() >= Fix::rawOne)
        return Fix::fromRaw(Fix::rawOne - 1);
    return v;
}

} // namespace flexon

#endif // FLEXON_FIXED_FIXED_POINT_HH
