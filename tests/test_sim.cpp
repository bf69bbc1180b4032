/// Tests for the simulation substrate: clock domains, resources and the
/// stats registry.
#include <gtest/gtest.h>

#include "sim/clock.hpp"
#include "sim/stats.hpp"

namespace spatten {
namespace {

TEST(ClockDomain, Conversions)
{
    ClockDomain clk(1.0);
    EXPECT_DOUBLE_EQ(clk.toNs(1000), 1000.0);
    EXPECT_DOUBLE_EQ(clk.toSeconds(1000000000ULL), 1.0);
    EXPECT_EQ(clk.fromNs(10.0), 10u);

    ClockDomain hbm(2.0, "hbm");
    EXPECT_DOUBLE_EQ(hbm.toNs(1000), 500.0);
    EXPECT_EQ(hbm.fromNs(10.0), 20u);
}

TEST(ClockDomain, FromNsRoundsUp)
{
    ClockDomain clk(1.0);
    EXPECT_EQ(clk.fromNs(0.1), 1u);
    EXPECT_EQ(clk.fromNs(0.0), 0u);
}

TEST(Resource, SerializesWork)
{
    Resource r("mult");
    EXPECT_EQ(r.acquire(0, 10), 10u);
    // Second item ready at 5 must wait until 10.
    EXPECT_EQ(r.acquire(5, 10), 20u);
    // Item arriving after the unit is free starts immediately.
    EXPECT_EQ(r.acquire(100, 5), 105u);
    EXPECT_EQ(r.busyCycles(), 25u);
}

TEST(Resource, Utilization)
{
    Resource r;
    r.acquire(0, 50);
    EXPECT_DOUBLE_EQ(r.utilization(100), 0.5);
    EXPECT_DOUBLE_EQ(r.utilization(0), 0.0);
}

TEST(Resource, ResetClears)
{
    Resource r;
    r.acquire(0, 10);
    r.reset();
    EXPECT_EQ(r.freeAt(), 0u);
    EXPECT_EQ(r.busyCycles(), 0u);
}

TEST(StatSet, AddAndGet)
{
    StatSet s;
    s.add("x", 1.0);
    s.add("x", 2.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    EXPECT_TRUE(s.has("x"));
    EXPECT_FALSE(s.has("missing"));
}

TEST(StatSet, SetOverwrites)
{
    StatSet s;
    s.add("x", 5.0);
    s.set("x", 1.0);
    EXPECT_DOUBLE_EQ(s.get("x"), 1.0);
}

TEST(StatSet, MergeSums)
{
    StatSet a, b;
    a.add("x", 1.0);
    b.add("x", 2.0);
    b.add("y", 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 3.0);
}

// Gauges (written via set(): utilizations, config echoes, reductions)
// must never be summed when result stats are merged into an aggregate —
// the regression was merge() treating every entry as a counter.
TEST(StatSet, MergeOverwritesGaugesInsteadOfSumming)
{
    StatSet a, b;
    a.set("pipeline.dram_reduction", 3.9);
    a.add("hbm.bytes_read", 100.0);
    b.set("pipeline.dram_reduction", 36.5);
    b.add("hbm.bytes_read", 50.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("pipeline.dram_reduction"), 36.5)
        << "gauges adopt the merged-in value, never the sum";
    EXPECT_DOUBLE_EQ(a.get("hbm.bytes_read"), 150.0)
        << "counters still sum";
    EXPECT_TRUE(a.isGauge("pipeline.dram_reduction"));
    EXPECT_FALSE(a.isGauge("hbm.bytes_read"));
}

TEST(StatSet, AddAfterSetReclassifiesAsCounter)
{
    StatSet a, b;
    a.set("x", 1.0);
    a.add("x", 2.0); // Latest write style wins: x is a counter again.
    EXPECT_FALSE(a.isGauge("x"));
    b.add("x", 4.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 7.0) << "counters sum on merge";
}

TEST(StatSet, MergingCounterOverGaugeReclassifiesAsCounter)
{
    StatSet a, b;
    a.set("x", 1.0);
    b.add("x", 2.0);
    a.merge(b); // Counter merged over a gauge: latest write style wins.
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_FALSE(a.isGauge("x"))
        << "a merged-in counter must clear the stale gauge mark";
}

TEST(StatSet, MergingGaugeIntoCounterlessSetKeepsGaugeKind)
{
    StatSet a, b;
    b.set("util", 0.5);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("util"), 0.5);
    EXPECT_TRUE(a.isGauge("util"));
    StatSet c;
    c.set("util", 0.7);
    a.merge(c);
    EXPECT_DOUBLE_EQ(a.get("util"), 0.7);
}

TEST(StatSet, ToStringContainsNames)
{
    StatSet s;
    s.add("alpha", 1.0);
    const std::string out = s.toString();
    EXPECT_NE(out.find("alpha"), std::string::npos);
}

// ---------------------------------------------------------------------
// sortedQuantile: linear interpolation between adjacent ranks
// ---------------------------------------------------------------------

TEST(SortedQuantile, EmptyAndSingleton)
{
    EXPECT_DOUBLE_EQ(sortedQuantile({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(sortedQuantile({7.0}, 0.0), 7.0);
    EXPECT_DOUBLE_EQ(sortedQuantile({7.0}, 0.5), 7.0);
    EXPECT_DOUBLE_EQ(sortedQuantile({7.0}, 1.0), 7.0);
}

TEST(SortedQuantile, MedianInterpolatesEvenSamples)
{
    EXPECT_DOUBLE_EQ(sortedQuantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
    EXPECT_DOUBLE_EQ(sortedQuantile({1.0, 2.0, 3.0}, 0.5), 2.0);
}

TEST(SortedQuantile, P99InterpolatesSmallSamples)
{
    // 10 samples: rank = 0.99 * 9 = 8.91 -> between the 9th and 10th
    // order statistics, NOT the 9th (the old nearest-rank "p89" bug).
    std::vector<double> ten;
    for (int i = 1; i <= 10; ++i)
        ten.push_back(static_cast<double>(i));
    EXPECT_NEAR(sortedQuantile(ten, 0.99), 9.91, 1e-12);
    EXPECT_GT(sortedQuantile(ten, 0.99), ten[8])
        << "p99 of 10 samples must exceed the 9th order statistic";

    // 64 samples (one per request of the serving bench trace):
    // rank = 0.99 * 63 = 62.37 -> 63.37 over the values 1..64, strictly
    // above the old nearest-rank answer of 62 (~p98.4).
    std::vector<double> sixty_four;
    for (int i = 1; i <= 64; ++i)
        sixty_four.push_back(static_cast<double>(i));
    EXPECT_NEAR(sortedQuantile(sixty_four, 0.99), 63.37, 1e-12);
}

TEST(SortedQuantile, ExtremesAndClamping)
{
    const std::vector<double> v{1.0, 5.0, 9.0};
    EXPECT_DOUBLE_EQ(sortedQuantile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(sortedQuantile(v, 1.0), 9.0);
    EXPECT_DOUBLE_EQ(sortedQuantile(v, -0.5), 1.0);
    EXPECT_DOUBLE_EQ(sortedQuantile(v, 1.5), 9.0);
}

TEST(SortedQuantile, MonotoneInQ)
{
    const std::vector<double> v{0.5, 1.0, 2.0, 4.0, 8.0, 16.0};
    double prev = sortedQuantile(v, 0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double cur = sortedQuantile(v, q);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

} // namespace
} // namespace spatten
