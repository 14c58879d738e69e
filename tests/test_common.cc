/**
 * @file
 * Unit tests for the common utilities: RNG determinism and
 * distribution statistics, running summaries, geometric means, the
 * histogram, and the table printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "bernoulli_cases.hh"

namespace flexon {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRangeAndMean)
{
    Rng rng(7);
    Summary s;
    for (int i = 0; i < 100000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        s.add(u);
    }
    EXPECT_NEAR(s.mean(), 0.5, 0.01);
    EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformIntUnbiased)
{
    Rng rng(11);
    std::array<int, 7> counts{};
    const int n = 70000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.uniformInt(7)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 7.0, 5.0 * std::sqrt(n / 7.0));
}

TEST(Rng, NormalMoments)
{
    Rng rng(13);
    Summary s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.normal(3.0, 2.0));
    EXPECT_NEAR(s.mean(), 3.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliProbability)
{
    Rng rng(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, PoissonMeanSmallAndLarge)
{
    Rng rng(19);
    Summary small, large;
    for (int i = 0; i < 50000; ++i) {
        small.add(static_cast<double>(rng.poisson(2.5)));
        large.add(static_cast<double>(rng.poisson(80.0)));
    }
    EXPECT_NEAR(small.mean(), 2.5, 0.05);
    EXPECT_NEAR(small.variance(), 2.5, 0.1);
    EXPECT_NEAR(large.mean(), 80.0, 0.5);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(23);
    Summary s;
    for (int i = 0; i < 100000; ++i)
        s.add(rng.exponential(4.0));
    EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(31);
    Rng child = parent.split();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (parent.next() == child.next());
    EXPECT_LT(same, 2);
}

TEST(Rng, StateRestoreContinuesTheIdenticalStream)
{
    // Interleave distributions so the Box-Muller cache is in flight
    // at capture time, then prove the restored stream is
    // indistinguishable from the uninterrupted one.
    Rng reference(77);
    Rng captured(77);
    for (int i = 0; i < 137; ++i) {
        reference.normal();
        captured.normal();
        reference.uniform();
        captured.uniform();
    }
    reference.normal(); // leaves one cached normal pending
    captured.normal();

    const RngState state = captured.state();
    Rng restored(12345); // different seed: state must fully replace it
    restored.setState(state);

    for (int i = 0; i < 500; ++i) {
        EXPECT_EQ(restored.normal(), reference.normal()) << i;
        EXPECT_EQ(restored.next(), reference.next()) << i;
        EXPECT_EQ(restored.uniform(), reference.uniform()) << i;
        EXPECT_EQ(restored.poisson(3.0), reference.poisson(3.0)) << i;
        EXPECT_EQ(restored.bernoulli(0.4), reference.bernoulli(0.4))
            << i;
    }
}

TEST(Rng, BernoulliThresholdIsExact)
{
    // k = threshold - 1 is the largest k whose uniform() k * 2^-53 is
    // below p, and a draw at k fires exactly when bernoulli(p) and
    // below(threshold) do.
    std::vector<double> ps = bernoulliEdgeProbabilities();
    for (const double p : bernoulliRandomProbabilities(1000, 2024))
        ps.push_back(p);
    Rng lowBits(5);
    for (const double p : ps) {
        const uint64_t threshold = Rng::bernoulliThreshold(p);
        ASSERT_LE(threshold, uint64_t{1} << 53) << p;
        if (threshold > 0) {
            EXPECT_LT(static_cast<double>(threshold - 1) * 0x1.0p-53, p)
                << "p = " << p;
        }
        if (threshold < (uint64_t{1} << 53)) {
            EXPECT_FALSE(static_cast<double>(threshold) * 0x1.0p-53 < p)
                << "p = " << p;
        }
        for (const uint64_t k : {threshold - 1, threshold}) {
            if (k >= (uint64_t{1} << 53))
                continue; // no draw has it (threshold 0, or p = 1)
            const RngState at =
                rngStateDrawing(k << 11 | lowBits.next() >> 53);
            Rng rng;
            rng.setState(at);
            EXPECT_EQ(rng.bernoulli(p), k < threshold)
                << "p = " << p << " k = " << k;
            rng.setState(at);
            EXPECT_EQ(rng.below(threshold), k < threshold)
                << "p = " << p << " k = " << k;
        }
    }
    EXPECT_EQ(Rng::bernoulliThreshold(0.0), 0u);
    EXPECT_EQ(Rng::bernoulliThreshold(1.0), uint64_t{1} << 53);
}

TEST(Rng, SetStateRejectsAllZeroState)
{
    Rng rng(1);
    RngState dead; // all-zero xoshiro state is a fixed point
    EXPECT_DEATH(rng.setState(dead), "all-zero");
}

TEST(Summary, BasicMoments)
{
    Summary s;
    for (double x : {1.0, 2.0, 3.0, 4.0})
        s.add(x);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, GeomeanMatchesClosedForm)
{
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({10.0, 10.0, 10.0}), 10.0, 1e-12);
    EXPECT_EQ(geomean({}), 0.0);
}

TEST(Stats, MeanMatchesClosedForm)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
    EXPECT_EQ(mean({}), 0.0);
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 10);
    h.add(0.5);   // bin 0
    h.add(9.5);   // bin 9
    h.add(-5.0);  // clamped to bin 0
    h.add(42.0);  // clamped to bin 9
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(9), 2u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_NEAR(h.binCenter(0), 0.5, 1e-12);
    EXPECT_NEAR(h.binCenter(9), 9.5, 1e-12);
}

TEST(Histogram, PercentileInterpolatesBinCenters)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(i / 10.0); // uniform over [0, 10)
    // Uniform fill: percentiles track the matching bin centers.
    EXPECT_NEAR(h.percentile(50.0), 4.5, 1.0);
    EXPECT_NEAR(h.percentile(90.0), 8.5, 1.0);
    // Out-of-range p clamps to [0, 100].
    EXPECT_DOUBLE_EQ(h.percentile(-5.0), h.percentile(0.0));
    EXPECT_DOUBLE_EQ(h.percentile(150.0), h.percentile(100.0));
}

TEST(Histogram, PercentileOfEmptyIsZero)
{
    Histogram h(0.0, 1.0, 4);
    EXPECT_EQ(h.percentile(50.0), 0.0);
    EXPECT_EQ(h.percentile(0.0), 0.0);
    EXPECT_EQ(h.percentile(100.0), 0.0);
}

TEST(Histogram, PercentileSingleBin)
{
    Histogram h(0.0, 2.0, 1);
    h.add(0.3);
    h.add(1.7);
    // Everything lands in the lone bin; every percentile is its
    // center.
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(50.0), 1.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 1.0);
}

TEST(Histogram, MergeAddsBinwise)
{
    Histogram a(0.0, 10.0, 10), b(0.0, 10.0, 10);
    a.add(0.5);
    a.add(5.5);
    b.add(5.5);
    b.add(9.5);
    a.merge(b);
    EXPECT_EQ(a.total(), 4u);
    EXPECT_EQ(a.binCount(0), 1u);
    EXPECT_EQ(a.binCount(5), 2u);
    EXPECT_EQ(a.binCount(9), 1u);
    // The merged-from histogram is untouched.
    EXPECT_EQ(b.total(), 2u);
}

TEST(Table, AlignedOutputContainsCells)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "22"});
    std::ostringstream oss;
    t.print(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.addRow({"1", "2"});
    std::ostringstream oss;
    t.printCsv(oss);
    EXPECT_EQ(oss.str(), "a,b\n1,2\n");
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::ratio(122.456, 1), "122.5x");
}

TEST(Logging, FatalExitsWithUserErrorStatus)
{
    // fatal() = user error: exit(1), message prefixed "fatal:".
    EXPECT_EXIT(fatal("bad config value %d", 7),
                ::testing::ExitedWithCode(1), "fatal: bad config");
}

TEST(Logging, PanicAbortsOnInternalBug)
{
    // panic() = internal invariant violation: abort().
    EXPECT_DEATH(panic("impossible state %s", "x"),
                 "panic: impossible state");
}

TEST(Logging, AssertMacroReportsLocation)
{
    EXPECT_DEATH(flexon_assert(1 + 1 == 3), "assertion");
}

TEST(Logging, InformAndWarnDoNotTerminate)
{
    ::testing::internal::CaptureStderr();
    inform("informational %d", 1);
    warn("suspicious but survivable");
    logTagged(LogLevel::Warn, "health", "tagged %d", 7);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("info: informational 1\n"), std::string::npos);
    EXPECT_NE(err.find("warn: suspicious but survivable\n"),
              std::string::npos);
    // logTagged puts its component in the stderr prefix.
    EXPECT_NE(err.find("warn: [health] tagged 7\n"), std::string::npos);
}

} // namespace
} // namespace flexon
