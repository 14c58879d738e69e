/**
 * @file
 * Unit and property tests for the fixed-point arithmetic (Q10.22) and
 * the Schraudolph fast-exp approximation the Flexon exponentiation
 * unit uses.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.hh"
#include "fixed/fast_exp.hh"
#include "fixed/fixed_point.hh"

namespace flexon {
namespace {

TEST(FixedPoint, Layout)
{
    EXPECT_EQ(Fix::intBits, 10);
    EXPECT_EQ(Fix::fracBits, 22);
    EXPECT_EQ(Fix::totalBits, 32);
    EXPECT_EQ(Fix::rawOne, int64_t(1) << 22);
    EXPECT_EQ(Fix::rawMax, (int64_t(1) << 31) - 1);
    EXPECT_EQ(Fix::rawMin, -(int64_t(1) << 31));
}

TEST(FixedPoint, DoubleRoundTrip)
{
    for (double v : {0.0, 1.0, -1.0, 0.5, -0.25, 3.14159, -271.828}) {
        EXPECT_NEAR(Fix::fromDouble(v).toDouble(), v, Fix::epsilon());
    }
}

TEST(FixedPoint, RoundsToNearest)
{
    // Half an LSB rounds away from zero.
    const double half_lsb = Fix::epsilon() / 2.0;
    EXPECT_EQ(Fix::fromDouble(half_lsb).raw(), 1);
    EXPECT_EQ(Fix::fromDouble(-half_lsb).raw(), -1);
    EXPECT_EQ(Fix::fromDouble(half_lsb * 0.9).raw(), 0);
}

TEST(FixedPoint, AdditionAndSubtraction)
{
    const Fix a = Fix::fromDouble(1.5);
    const Fix b = Fix::fromDouble(-0.25);
    EXPECT_DOUBLE_EQ((a + b).toDouble(), 1.25);
    EXPECT_DOUBLE_EQ((a - b).toDouble(), 1.75);
    EXPECT_DOUBLE_EQ((-a).toDouble(), -1.5);
}

TEST(FixedPoint, MultiplicationExactForDyadics)
{
    const Fix a = Fix::fromDouble(0.5);
    const Fix b = Fix::fromDouble(0.25);
    EXPECT_DOUBLE_EQ((a * b).toDouble(), 0.125);
    EXPECT_DOUBLE_EQ((a * Fix::one()).toDouble(), 0.5);
    EXPECT_DOUBLE_EQ((Fix::zero() * b).toDouble(), 0.0);
}

TEST(FixedPoint, MultiplicationTruncatesTowardNegInfinity)
{
    // 1 LSB * 0.5 = half an LSB, which truncates to 0 for positive
    // and to -1 LSB for negative operands (arithmetic shift).
    const Fix lsb = Fix::fromRaw(1);
    const Fix neg_lsb = Fix::fromRaw(-1);
    const Fix half = Fix::fromDouble(0.5);
    EXPECT_EQ((lsb * half).raw(), 0);
    EXPECT_EQ((neg_lsb * half).raw(), -1);
}

TEST(FixedPoint, AdditionSaturates)
{
    const Fix max = Fix::fromRaw(Fix::rawMax);
    const Fix min = Fix::fromRaw(Fix::rawMin);
    EXPECT_EQ((max + max).raw(), Fix::rawMax);
    EXPECT_EQ((min + min).raw(), Fix::rawMin);
    EXPECT_EQ((max + Fix::fromRaw(1)).raw(), Fix::rawMax);
}

TEST(FixedPoint, MultiplicationSaturates)
{
    const Fix big = Fix::fromDouble(500.0);
    EXPECT_EQ((big * big).raw(), Fix::rawMax);
    EXPECT_EQ((big * (-big)).raw(), Fix::rawMin);
}

TEST(FixedPoint, FromDoubleSaturates)
{
    EXPECT_EQ(Fix::fromDouble(1e9).raw(), Fix::rawMax);
    EXPECT_EQ(Fix::fromDouble(-1e9).raw(), Fix::rawMin);
}

TEST(FixedPoint, FromDoubleNonFinite)
{
    // NaN is defined to take the lower rail (casting it to an integer
    // would be undefined behaviour); infinities saturate.
    EXPECT_EQ(Fix::fromDouble(std::nan("")).raw(), Fix::rawMin);
    EXPECT_EQ(Fix::fromDouble(-std::nan("")).raw(), Fix::rawMin);
    EXPECT_EQ(Fix::fromDouble(HUGE_VAL).raw(), Fix::rawMax);
    EXPECT_EQ(Fix::fromDouble(-HUGE_VAL).raw(), Fix::rawMin);
}

TEST(FixedPoint, Comparisons)
{
    const Fix a = Fix::fromDouble(0.5);
    const Fix b = Fix::fromDouble(0.75);
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(b > a);
    EXPECT_TRUE(a <= a);
    EXPECT_TRUE(a == Fix::fromDouble(0.5));
    EXPECT_TRUE(a != b);
}

TEST(FixedPoint, PropertyAdditionMatchesDouble)
{
    Rng rng(101);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-100.0, 100.0);
        const double y = rng.uniform(-100.0, 100.0);
        const double got =
            (Fix::fromDouble(x) + Fix::fromDouble(y)).toDouble();
        EXPECT_NEAR(got, x + y, 2.0 * Fix::epsilon());
    }
}

TEST(FixedPoint, PropertyMultiplicationMatchesDouble)
{
    Rng rng(103);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.uniform(-10.0, 10.0);
        const double y = rng.uniform(-10.0, 10.0);
        const double got =
            (Fix::fromDouble(x) * Fix::fromDouble(y)).toDouble();
        // Conversion (0.5 LSB each) plus truncation (1 LSB), scaled
        // by the operand magnitudes.
        EXPECT_NEAR(got, x * y, 25.0 * Fix::epsilon());
    }
}

/**
 * Independent model of the Q10.22 product: the exact 128-bit
 * product, divided by 2^22 rounding toward negative infinity, then
 * clamped to the raw range.
 */
int64_t
wideProductRaw(int64_t a, int64_t b)
{
    const __int128 prod = static_cast<__int128>(a) * b;
    const __int128 scale = __int128(1) << Fix::fracBits;
    __int128 quot = prod / scale;
    if (prod % scale != 0 && prod < 0)
        --quot;
    if (quot > Fix::rawMax)
        return Fix::rawMax;
    if (quot < Fix::rawMin)
        return Fix::rawMin;
    return static_cast<int64_t>(quot);
}

TEST(FixedPoint, ProductMatchesWideModelAtRails)
{
    const int64_t corners[] = {
        Fix::rawMin, Fix::rawMin + 1, -Fix::rawOne, -1, 0,
        1,           Fix::rawOne,     Fix::rawMax - 1, Fix::rawMax};
    for (const int64_t a : corners) {
        for (const int64_t b : corners) {
            EXPECT_EQ((Fix::fromRaw(a) * Fix::fromRaw(b)).raw(),
                      wideProductRaw(a, b))
                << a << " * " << b;
        }
    }
}

TEST(FixedPoint, ProductMatchesWideModelOnRandomPairs)
{
    // Raw values over the whole 32-bit range, each shifted down by a
    // random amount so small and unsaturated products are common too.
    Rng rng(109);
    auto randomRaw = [&rng]() {
        const auto raw = static_cast<int32_t>(rng.next());
        return static_cast<int64_t>(raw >> rng.uniformInt(32));
    };
    for (int i = 0; i < 1'000'000; ++i) {
        const int64_t a = randomRaw();
        const int64_t b = randomRaw();
        ASSERT_EQ((Fix::fromRaw(a) * Fix::fromRaw(b)).raw(),
                  wideProductRaw(a, b))
            << a << " * " << b;
    }
}

TEST(TruncateMembrane, ClampsToUnitInterval)
{
    EXPECT_EQ(truncateMembrane(Fix::fromDouble(-0.5)), Fix::zero());
    EXPECT_EQ(truncateMembrane(Fix::fromDouble(0.5)),
              Fix::fromDouble(0.5));
    EXPECT_EQ(truncateMembrane(Fix::fromDouble(1.5)).raw(),
              Fix::rawOne - 1);
    EXPECT_EQ(truncateMembrane(Fix::one()).raw(), Fix::rawOne - 1);
}

TEST(TruncateMembrane, FitsIn22Bits)
{
    // After truncation the value is a non-negative pure fraction:
    // exactly the 22 fraction bits (Section IV-B1).
    Rng rng(107);
    for (int i = 0; i < 1000; ++i) {
        const Fix v = Fix::fromDouble(rng.uniform(-2.0, 2.0));
        const int64_t raw = truncateMembrane(v).raw();
        EXPECT_GE(raw, 0);
        EXPECT_LT(raw, int64_t(1) << 22);
    }
}

TEST(FastExp, AccurateWithinSchraudolphBound)
{
    // Schraudolph's approximation has < ~4 % relative error.
    for (double y = -6.0; y <= 6.0; y += 0.01) {
        const double exact = std::exp(y);
        const double approx = fastExp(y);
        EXPECT_NEAR(approx / exact, 1.0, 0.04) << "y=" << y;
    }
}

TEST(FastExp, ClampsExtremeInputs)
{
    EXPECT_TRUE(std::isfinite(fastExp(1000.0)));
    EXPECT_TRUE(std::isfinite(fastExp(-1000.0)));
    EXPECT_GT(fastExp(1000.0), 1e200);
    EXPECT_LT(fastExp(-1000.0), 1e-200);
}

TEST(FixedExp, MatchesDoubleExpWithinTolerance)
{
    // Over the Flexon operating range the combined fixed-point and
    // approximation error stays below 4 % relative + 1 LSB absolute.
    for (double y = -5.0; y <= 2.5; y += 0.01) {
        const double exact = std::exp(y);
        const double approx = fixedExp(Fix::fromDouble(y)).toDouble();
        EXPECT_NEAR(approx, exact,
                    0.04 * exact + 2.0 * Fix::epsilon())
            << "y=" << y;
    }
}

TEST(FixedExp, DeterministicAcrossCalls)
{
    const Fix x = Fix::fromDouble(1.2345);
    EXPECT_EQ(fixedExp(x).raw(), fixedExp(x).raw());
}

TEST(FixedPointNarrow, SmallFormatsBehave)
{
    using Q4 = FixedPoint<4, 4>;
    EXPECT_EQ(Q4::totalBits, 8);
    EXPECT_EQ(Q4::rawMax, 127);
    EXPECT_DOUBLE_EQ(Q4::fromDouble(1.5).toDouble(), 1.5);
    // Saturation at +7.9375.
    EXPECT_EQ(Q4::fromDouble(100.0).raw(), 127);
}

TEST(FixedPointExhaustive, EightBitAddMatchesIntegerModel)
{
    // FixedPoint<4,4> has 256 representable values: check saturating
    // addition exhaustively against a wide-integer model.
    using Q4 = FixedPoint<4, 4>;
    for (int64_t a = Q4::rawMin; a <= Q4::rawMax; ++a) {
        for (int64_t b = Q4::rawMin; b <= Q4::rawMax; ++b) {
            const int64_t expected =
                std::clamp(a + b, Q4::rawMin, Q4::rawMax);
            ASSERT_EQ((Q4::fromRaw(a) + Q4::fromRaw(b)).raw(),
                      expected)
                << a << " + " << b;
        }
    }
}

TEST(FixedPointExhaustive, EightBitMulMatchesIntegerModel)
{
    using Q4 = FixedPoint<4, 4>;
    for (int64_t a = Q4::rawMin; a <= Q4::rawMax; ++a) {
        for (int64_t b = Q4::rawMin; b <= Q4::rawMax; ++b) {
            // Arithmetic shift truncates toward negative infinity.
            const int64_t prod = a * b;
            const int64_t shifted =
                prod >= 0 ? prod >> 4
                          : ~((~prod) >> 4) - ((prod & 15) ? 0 : 0);
            const int64_t floor_shift =
                static_cast<int64_t>(
                    std::floor(static_cast<double>(prod) / 16.0));
            (void)shifted;
            const int64_t expected = std::clamp(
                floor_shift, Q4::rawMin, Q4::rawMax);
            ASSERT_EQ((Q4::fromRaw(a) * Q4::fromRaw(b)).raw(),
                      expected)
                << a << " * " << b;
        }
    }
}

} // namespace
} // namespace flexon
