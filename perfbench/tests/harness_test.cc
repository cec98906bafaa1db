// Unit tests of the benchmark's measurement helpers (src/harness.h).
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include "harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

namespace perfbench {
namespace {

TEST(ZipfSamplerTest, MassFollowsThePowerLaw) {
  const ZipfSampler zipf(100, 1.1);
  double total = 0.0;
  for (std::size_t i = 0; i < 100; ++i) total += zipf.Mass(i);
  EXPECT_NEAR(total, 1.0, 1e-12);
  // P(i) / P(j) = ((j + 1) / (i + 1))^s.
  EXPECT_NEAR(zipf.Mass(0) / zipf.Mass(9), std::pow(10.0, 1.1), 1e-9);
  EXPECT_GT(zipf.Mass(0), zipf.Mass(1));
}

TEST(ZipfSamplerTest, DrawsMatchTheMassAndStayInRange) {
  const ZipfSampler zipf(64, 1.1);
  std::mt19937_64 rng(7);
  std::vector<std::size_t> hits(64, 0);
  const std::size_t draws = 200000;
  for (std::size_t i = 0; i < draws; ++i) {
    const std::size_t k = zipf.Pick(rng);
    ASSERT_LT(k, 64u);
    ++hits[k];
  }
  for (std::size_t k : {0u, 1u, 5u, 63u}) {
    const double expected = zipf.Mass(k) * static_cast<double>(draws);
    EXPECT_NEAR(static_cast<double>(hits[k]), expected,
                5.0 * std::sqrt(expected) + 1.0)
        << "rank " << k;
  }
}

TEST(ZipfSamplerTest, ZeroSkewIsUniformAndSeedsRepeat) {
  const ZipfSampler uniform(10, 0.0);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(uniform.Mass(i), 0.1, 1e-12);
  std::mt19937_64 a(3), b(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(uniform.Pick(a), uniform.Pick(b));
}

TEST(PoissonScheduleTest, SameSeedSameScheduleAndTimesAscendInRange) {
  const std::vector<double> a = PoissonSchedule(500.0, 4.0, 11);
  const std::vector<double> b = PoissonSchedule(500.0, 4.0, 11);
  const std::vector<double> c = PoissonSchedule(500.0, 4.0, 12);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  ASSERT_FALSE(a.empty());
  EXPECT_GT(a.front(), 0.0);
  EXPECT_LT(a.back(), 4.0);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
}

TEST(PoissonScheduleTest, CountAndGapsMatchTheRate) {
  const double rate = 2000.0, seconds = 10.0;
  const std::vector<double> t = PoissonSchedule(rate, seconds, 5);
  const double expected = rate * seconds;
  EXPECT_NEAR(static_cast<double>(t.size()), expected, 5.0 * std::sqrt(expected));
  // Exponential gaps: mean 1/rate, and the coefficient of variation is 1.
  std::vector<double> gaps;
  for (std::size_t i = 1; i < t.size(); ++i) gaps.push_back(t[i] - t[i - 1]);
  const double mean = std::accumulate(gaps.begin(), gaps.end(), 0.0) /
                      static_cast<double>(gaps.size());
  double var = 0.0;
  for (double g : gaps) var += (g - mean) * (g - mean);
  var /= static_cast<double>(gaps.size());
  EXPECT_NEAR(mean, 1.0 / rate, 0.03 / rate);
  EXPECT_NEAR(std::sqrt(var) / mean, 1.0, 0.05);
}

TEST(PoissonScheduleTest, NoRateOrNoTimeGivesNoArrivals) {
  EXPECT_TRUE(PoissonSchedule(0.0, 5.0, 1).empty());
  EXPECT_TRUE(PoissonSchedule(100.0, 0.0, 1).empty());
}

TEST(PercentileRuleTest, TailKeepsTenSamplesBeyondIt) {
  EXPECT_DOUBLE_EQ(TailPercentile(1000), 99.0);   // exactly ten beyond p99
  EXPECT_DOUBLE_EQ(TailPercentile(100000), 99.0); // capped at the target
  EXPECT_DOUBLE_EQ(TailPercentile(200), 95.0);    // 100 * (200 - 10) / 200
  EXPECT_DOUBLE_EQ(TailPercentile(10), 50.0);     // no tail is supported
  EXPECT_DOUBLE_EQ(TailPercentile(15), 50.0);     // never below the median
  EXPECT_DOUBLE_EQ(TailPercentile(1000, 99.9), 99.0);

  // With the samples 1..n, the reported tail leaves exactly ten above it.
  for (std::size_t n : {100u, 200u, 999u, 1000u, 5000u}) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);
    const Summary s = Summarize(v);
    const std::size_t beyond = static_cast<std::size_t>(
        std::count_if(v.begin(), v.end(), [&](double x) { return x > s.tail; }));
    EXPECT_GE(beyond, 10u) << "n=" << n;
    if (n <= 1000) EXPECT_EQ(beyond, 10u) << "n=" << n;
  }
}

TEST(PercentileRuleTest, SummarizeIsNearestRankAndOrderFree) {
  const Summary s = Summarize({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.tail, 3.0);  // five samples: the tail falls back to p50
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(RankValue({1.0, 2.0, 3.0, 4.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(RankValue({1.0, 2.0, 3.0, 4.0}, 100.0), 4.0);
  EXPECT_EQ(Summarize({}).n, 0u);
}

TEST(PercentileRuleTest, WindowsRejectABurstInOneWindow) {
  // 4000 samples of 1.0 with a burst of 200 slow samples in the first
  // quarter: the whole-sample p99 sees the burst, the windowed one does not.
  std::vector<double> v(4000, 1.0);
  for (std::size_t i = 100; i < 300; ++i) v[i] = 50.0;
  EXPECT_DOUBLE_EQ(Summarize(v).tail, 50.0);
  const Summary w = SummarizeWindows(v, 1000);
  EXPECT_DOUBLE_EQ(w.tail, 1.0);
  EXPECT_DOUBLE_EQ(w.median, 1.0);
  EXPECT_EQ(w.n, 4000u);
  EXPECT_DOUBLE_EQ(w.tail_pct, 99.0);
  // Too few samples for two windows: identical to the plain summary.
  const std::vector<double> small(1500, 2.0);
  EXPECT_DOUBLE_EQ(SummarizeWindows(small, 1000).tail, Summarize(small).tail);
}

TEST(PercentileRuleTest, WindowsReportTheSteadierQuarter) {
  // Eight windows; the host slows down the last six (3x): the result is
  // still the undisturbed cost, while a slowdown of every window shows.
  std::vector<double> v(8000, 1.0);
  for (std::size_t i = 2000; i < v.size(); ++i) v[i] = 3.0;
  EXPECT_DOUBLE_EQ(SummarizeWindows(v, 1000).median, 1.0);
  EXPECT_DOUBLE_EQ(SummarizeWindows(std::vector<double>(8000, 3.0), 1000).median,
                   3.0);
  // Seven slowed windows out of eight: the lower quartile sees the slowdown.
  for (std::size_t i = 1000; i < 2000; ++i) v[i] = 3.0;
  EXPECT_DOUBLE_EQ(SummarizeWindows(v, 1000).median, 3.0);
}

TEST(MarginalTest, SubtractsPerQueryAndSkipsMissingRungs) {
  const double nan = std::nan("");
  const std::vector<double> outer = {10.0, 20.0, nan, 7.0};
  const std::vector<double> inner = {4.0, 25.0, 3.0, nan};
  const std::vector<double> m = Marginal(outer, inner);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0], 6.0);
  EXPECT_DOUBLE_EQ(m[1], -5.0);  // noise is kept, not clipped
}

TEST(SpanLogTest, ReducesSpansPerQueryAndPerPart) {
  SpanLog log;
  // Query 0: two shard scans of 3 us and 5 us; query 1: one of 2 us.
  log.Record(0, 0, 7, 0, 3000);
  log.Record(0, 1, 7, 10000, 15000);
  log.Record(1, 0, 7, 20000, 22000);
  log.Record(1, 0, 8, 30000, 39000);  // another layer
  const std::vector<double> sum = log.PerQuery(7, 3);
  EXPECT_DOUBLE_EQ(sum[0], 8.0);
  EXPECT_DOUBLE_EQ(sum[1], 2.0);
  EXPECT_TRUE(std::isnan(sum[2]));
  const std::vector<double> max = log.PerQuery(7, 2, SpanLog::Reduce::kMax);
  EXPECT_DOUBLE_EQ(max[0], 5.0);
  const std::vector<double> parts = log.PerPart(7, 2, 2);
  EXPECT_DOUBLE_EQ(parts[0], 3.0);
  EXPECT_DOUBLE_EQ(parts[1], 5.0);
  EXPECT_DOUBLE_EQ(parts[2], 2.0);
  EXPECT_TRUE(std::isnan(parts[3]));
  EXPECT_EQ(log.All(8).size(), 1u);
  // Marginal cost of layer 8 over layer 7's slowest part, per query.
  const std::vector<double> m =
      Marginal(log.PerQuery(8, 2), log.PerQuery(7, 2, SpanLog::Reduce::kMax));
  ASSERT_EQ(m.size(), 1u);
  EXPECT_DOUBLE_EQ(m[0], 7.0);
}

TEST(SpanLogTest, TimeRecordsOneSpanAndReturnsTheResult) {
  SpanLog log;
  const int v = log.Time(4, 1, 2, [] { return 42; });
  log.Time(5, 0, 2, [] {});
  EXPECT_EQ(v, 42);
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[0].query, 4u);
  EXPECT_EQ(log.spans()[0].part, 1u);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[0].end_ns);
}

}  // namespace
}  // namespace perfbench
