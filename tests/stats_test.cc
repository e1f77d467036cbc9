/**
 * @file
 * Unit tests for the stats module: summaries, percentiles,
 * the paper's confidence methodology, and table rendering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sim/log.h"
#include "sim/random.h"
#include "stats/confidence.h"
#include "stats/summary.h"
#include "stats/table.h"

namespace svtsim {
namespace {

// -------------------------------------------------------------- summary

TEST(Summary, EmptyIsZero)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
    EXPECT_EQ(s.sem(), 0.0);
}

TEST(Summary, SingleSample)
{
    Summary s;
    s.add(42.0);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_EQ(s.mean(), 42.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 42.0);
    EXPECT_EQ(s.max(), 42.0);
}

TEST(Summary, KnownMoments)
{
    Summary s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance with n-1 = 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, MergeMatchesCombined)
{
    Rng rng(5);
    Summary a, b, all;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.normal(10, 3);
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
    EXPECT_EQ(a.min(), all.min());
    EXPECT_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmpty)
{
    Summary a, b;
    a.add(1.0);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.mean(), 1.0);
}

TEST(Summary, ResetClears)
{
    Summary s;
    s.add(1);
    s.add(2);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(Summary, SemShrinksWithSamples)
{
    Rng rng(6);
    Summary small, large;
    for (int i = 0; i < 100; ++i)
        small.add(rng.normal(0, 1));
    for (int i = 0; i < 10000; ++i)
        large.add(rng.normal(0, 1));
    EXPECT_LT(large.sem(), small.sem());
}

// ---------------------------------------------------------- percentiles

TEST(Percentiles, QuantilesOfKnownSequence)
{
    Percentiles p;
    for (int i = 1; i <= 100; ++i)
        p.add(i);
    EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-9);
    EXPECT_NEAR(p.p50(), 50.5, 1e-9);
    EXPECT_NEAR(p.p99(), 99.01, 1e-9);
}

TEST(Percentiles, SingleSample)
{
    Percentiles p;
    p.add(7.0);
    EXPECT_EQ(p.quantile(0.0), 7.0);
    EXPECT_EQ(p.quantile(0.3), 7.0);
    EXPECT_EQ(p.quantile(1.0), 7.0);
    EXPECT_EQ(p.p99(), 7.0);
}

TEST(Percentiles, UnsortedInsertsExactQuantiles)
{
    // quantile() must sort lazily: extremes and the median are exact
    // regardless of insertion order.
    Percentiles p;
    for (double v : {5.0, 1.0, 4.0, 2.0, 3.0})
        p.add(v);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 5.0);
    // Interleave another add after a query: the lazy sort must not
    // lose samples added afterwards.
    p.add(0.5);
    EXPECT_DOUBLE_EQ(p.quantile(0.0), 0.5);
    EXPECT_DOUBLE_EQ(p.quantile(1.0), 5.0);
}

TEST(Percentiles, EmptyQuantilePanics)
{
    Percentiles p;
    EXPECT_THROW(p.quantile(0.5), PanicError);
}

TEST(Percentiles, OutOfRangeQuantilePanics)
{
    Percentiles p;
    p.add(1.0);
    EXPECT_THROW(p.quantile(-0.1), PanicError);
    EXPECT_THROW(p.quantile(1.1), PanicError);
}

TEST(Percentiles, InsertionOrderIrrelevant)
{
    Rng rng(8);
    std::vector<double> vals;
    for (int i = 0; i < 500; ++i)
        vals.push_back(rng.uniform(0, 100));
    Percentiles sorted_in, shuffled_in;
    auto sorted = vals;
    std::sort(sorted.begin(), sorted.end());
    for (double v : sorted)
        sorted_in.add(v);
    for (double v : vals)
        shuffled_in.add(v);
    for (double q : {0.1, 0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(sorted_in.quantile(q), shuffled_in.quantile(q));
}

TEST(Percentiles, MeanMatchesSummary)
{
    Rng rng(9);
    Percentiles p;
    Summary s;
    for (int i = 0; i < 1000; ++i) {
        double x = rng.exponential(3.0);
        p.add(x);
        s.add(x);
    }
    EXPECT_NEAR(p.mean(), s.mean(), 1e-9);
}

// Property: against exact nearest-rank on random data.
TEST(Percentiles, PropertyAgainstSortedReference)
{
    Rng rng(10);
    for (int trial = 0; trial < 10; ++trial) {
        Percentiles p;
        std::vector<double> ref;
        int n = 50 + static_cast<int>(rng.below(500));
        for (int i = 0; i < n; ++i) {
            double x = rng.logNormal(1.0, 1.0);
            p.add(x);
            ref.push_back(x);
        }
        std::sort(ref.begin(), ref.end());
        for (double q : {0.25, 0.5, 0.75, 0.95, 0.99}) {
            double pos = q * (n - 1);
            auto lo = static_cast<std::size_t>(pos);
            auto hi = std::min(lo + 1, ref.size() - 1);
            double frac = pos - static_cast<double>(lo);
            double expect = ref[lo] * (1 - frac) + ref[hi] * frac;
            EXPECT_DOUBLE_EQ(p.quantile(q), expect);
        }
    }
}

// ----------------------------------------------------------- confidence

TEST(Confidence, ConvergesOnLowVarianceSeries)
{
    Rng rng(11);
    ConfidenceRunner runner;
    auto r = runner.run([&] { return rng.normal(100.0, 0.5); });
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.mean, 100.0, 1.0);
    EXPECT_GE(r.accepted, runner.minSamples);
}

TEST(Confidence, ConstantSeriesConvergesImmediately)
{
    ConfidenceRunner runner;
    auto r = runner.run([] { return 42.0; });
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.mean, 42.0);
    EXPECT_EQ(r.stddev, 0.0);
    EXPECT_EQ(r.accepted, runner.minSamples);
}

TEST(Confidence, RejectsOutliers)
{
    // A tight series with occasional 100x spikes: the 4-sigma filter
    // must drop the spikes and the mean must track the base value.
    Rng rng(12);
    int i = 0;
    ConfidenceRunner runner;
    runner.minSamples = 500;
    auto r = runner.run([&]() -> double {
        ++i;
        if (i % 100 == 0)
            return 1000.0;
        return rng.normal(10.0, 0.1);
    });
    EXPECT_GT(r.rejected, 0u);
    EXPECT_NEAR(r.mean, 10.0, 0.5);
}

TEST(Confidence, HighVarianceNeedsMoreSamples)
{
    Rng rng(13);
    ConfidenceRunner runner;
    auto tight = runner.run([&] { return rng.normal(100, 0.5); });
    auto loose = runner.run([&] { return rng.normal(100, 20.0); });
    EXPECT_GT(loose.accepted + loose.rejected,
              tight.accepted + tight.rejected);
}

TEST(Confidence, GivesUpAtMaxSamples)
{
    Rng rng(14);
    ConfidenceRunner runner;
    runner.maxSamples = 100;
    // Wild multi-modal data cannot converge to 1% in 100 samples.
    auto r = runner.run([&] { return rng.uniform(0.0, 1000.0); });
    EXPECT_FALSE(r.converged);
    EXPECT_LE(r.accepted + r.rejected, 100u);
}

TEST(Confidence, EvaluateFixedSeries)
{
    ConfidenceRunner runner;
    std::vector<double> samples(1000, 5.0);
    auto r = runner.evaluate(samples);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.mean, 5.0);
}

TEST(Confidence, EvaluateEmptyFails)
{
    ConfidenceRunner runner;
    EXPECT_THROW(runner.evaluate({}), FatalError);
}

TEST(Confidence, MinSamplesValidated)
{
    ConfidenceRunner runner;
    runner.minSamples = 1;
    EXPECT_THROW(runner.run([] { return 1.0; }), FatalError);
}

// ----------------------------------------------------------------- table

TEST(Table, RendersHeaderAndRows)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "2"});
    std::string out = t.render();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("beta"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ArityMismatchFails)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), FatalError);
}

TEST(Table, EmptyHeaderFails)
{
    EXPECT_THROW(Table({}), FatalError);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(10.0, 0), "10");
}

TEST(Table, ColumnsAligned)
{
    Table t({"x", "yyyyy"});
    t.addRow({"aaaaaaa", "1"});
    std::string out = t.render();
    // Second line is the separator; its width covers the widest cells.
    auto first_nl = out.find('\n');
    auto second_nl = out.find('\n', first_nl + 1);
    std::string sep = out.substr(first_nl + 1, second_nl - first_nl - 1);
    EXPECT_GE(sep.size(), std::string("aaaaaaa  yyyyy").size());
}

} // namespace
} // namespace svtsim
