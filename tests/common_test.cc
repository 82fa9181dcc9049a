// Unit tests for src/common: RNG determinism and statistical sanity,
// distribution moments, streaming statistics, quantiles, CDFs, text tables
// and the thread pool.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>

#include "src/common/distribution.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/table.h"
#include "src/common/thread_pool.h"

namespace msprint {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextDoubleOpenZeroNeverZero) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDoubleOpenZero();
    EXPECT_GT(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanNearHalf) {
  Rng rng(99);
  StreamingStats stats;
  for (int i = 0; i < 100000; ++i) {
    stats.Add(rng.NextDouble());
  }
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1'000'000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedZeroReturnsZero) {
  Rng rng(5);
  EXPECT_EQ(rng.NextBounded(0), 0u);
}

TEST(RngTest, NextBoundedCoversAllValues) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(rng.NextBounded(6));
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(21);
  StreamingStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(rng.NextGaussian());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(RngTest, DeriveSeedIsStableAndDistinct) {
  EXPECT_EQ(DeriveSeed(42, 0), DeriveSeed(42, 0));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(42, 1));
  EXPECT_NE(DeriveSeed(42, 0), DeriveSeed(43, 0));
}

TEST(RngTest, BatchedDrawsMatchUnbatchedExactly) {
  // The hot-loop batching the event engines enable must be invisible in
  // the value stream: same seed, same draws, bit for bit, across raw and
  // derived samplers — including when batching is switched on mid-stream
  // and for block sizes that do not divide the draw count.
  for (size_t block : {1ul, 3ul, 64ul, Rng::kMaxBatchBlock}) {
    Rng plain(1234);
    Rng batched(1234);
    for (int i = 0; i < 17; ++i) {  // warm both up unbatched first
      ASSERT_EQ(plain.Next(), batched.Next());
    }
    batched.EnableBatchedDraws(block);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(plain.Next(), batched.Next()) << "block=" << block;
    }
    // Derived samplers sit on top of Next() and must match too.
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(plain.NextDouble(), batched.NextDouble());
      ASSERT_EQ(plain.NextBounded(97), batched.NextBounded(97));
      ASSERT_EQ(plain.NextGaussian(), batched.NextGaussian());
    }
  }
}

// ---------------------------------------------------------------- stats

TEST(StatsTest, StreamingMeanVariance) {
  StreamingStats stats;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.Add(x);
  }
  EXPECT_EQ(stats.count(), 8u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(StatsTest, EmptyStatsAreZero) {
  StreamingStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.cov(), 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  std::vector<double> values = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 3.0, 2.0}), 2.0);
}

TEST(StatsTest, QuantileThrowsOnEmpty) {
  EXPECT_THROW(Quantile({}, 0.5), std::invalid_argument);
}

TEST(StatsTest, QuantileClampsFractionAndRejectsNaN) {
  const std::vector<double> values = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(values, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(values, 1.5), 4.0);
  // A NaN fraction survives clamping and casting it to an index is UB, so
  // it is rejected up front.
  EXPECT_THROW(Quantile(values, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(StatsTest, AbsoluteRelativeError) {
  EXPECT_DOUBLE_EQ(AbsoluteRelativeError(110.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(AbsoluteRelativeError(90.0, 100.0), 0.1);
  EXPECT_DOUBLE_EQ(AbsoluteRelativeError(5.0, 0.0), 5.0);
}

TEST(StatsTest, EmpiricalCdf) {
  EmpiricalCdf cdf({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.Probability(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.Probability(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.Probability(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.Probability(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Value(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.Value(1.0), 4.0);
}

TEST(StatsTest, TailFraction) {
  const std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(TailFraction(values, 3.0), 0.4);
  EXPECT_DOUBLE_EQ(TailFraction(values, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(TailFraction({}, 1.0), 0.0);
}

TEST(LogHistogramTest, EmptyHistogramIsAllZeros) {
  const LogHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.rejected(), 0u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
  EXPECT_DOUBLE_EQ(hist.ApproxMean(), 0.0);
  EXPECT_DOUBLE_EQ(hist.ApproxQuantile(0.5), 0.0);
}

TEST(LogHistogramTest, SingleSampleIsItsOwnSummary) {
  LogHistogram hist;
  ASSERT_TRUE(hist.Record(0.042));
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.042);
  EXPECT_DOUBLE_EQ(hist.max(), 0.042);
  // One sample: every representative is clamped to the observed range, so
  // mean and all quantiles equal the sample exactly.
  EXPECT_DOUBLE_EQ(hist.ApproxMean(), 0.042);
  EXPECT_DOUBLE_EQ(hist.ApproxQuantile(0.0), 0.042);
  EXPECT_DOUBLE_EQ(hist.ApproxQuantile(0.99), 0.042);
}

TEST(LogHistogramTest, RejectsNaNNegativeAndInfinite) {
  LogHistogram hist;
  EXPECT_FALSE(hist.Record(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(hist.Record(-0.001));
  EXPECT_FALSE(hist.Record(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.rejected(), 3u);
  // Rejections must not poison the bounds of later good samples.
  EXPECT_TRUE(hist.Record(5.0));
  EXPECT_DOUBLE_EQ(hist.min(), 5.0);
  EXPECT_DOUBLE_EQ(hist.max(), 5.0);
}

TEST(LogHistogramTest, ZeroAndHugeLandInBoundaryBuckets) {
  LogHistogram hist;
  EXPECT_TRUE(hist.Record(0.0));    // below kMinTracked: underflow bucket
  EXPECT_TRUE(hist.Record(1e15));   // above kMaxTracked: overflow bucket
  EXPECT_EQ(hist.buckets().front(), 1u);
  EXPECT_EQ(hist.buckets().back(), 1u);
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 1e15);
}

// The bucket mapping BucketIndex had when it called std::log10 per
// sample, kept here as the oracle of its table lookup.
size_t Log10BucketIndex(double v) {
  if (v < LogHistogram::kMinTracked) {
    return 0;
  }
  if (v >= LogHistogram::kMaxTracked) {
    return LogHistogram::NumBuckets() - 1;
  }
  const double position =
      std::log10(v / LogHistogram::kMinTracked) *
      static_cast<double>(LogHistogram::kBucketsPerDecade);
  const size_t index = 1 + static_cast<size_t>(position);
  return std::min(index, LogHistogram::NumBuckets() - 2);
}

TEST(LogHistogramTest, BucketIndexMatchesLog10Expression) {
  size_t checks = 0;
  size_t mismatches = 0;
  auto check = [&](double v) {
    ++checks;
    if (LogHistogram::BucketIndex(v) != Log10BucketIndex(v) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << "bits " << std::bit_cast<uint64_t>(v) << " value "
                    << v << ": " << LogHistogram::BucketIndex(v) << " vs "
                    << Log10BucketIndex(v);
    }
  };
  auto around = [&](double center, int64_t ulps) {
    const int64_t bits = std::bit_cast<int64_t>(center);
    for (int64_t d = -ulps; d <= ulps; ++d) {
      if (bits + d >= 0) {
        check(std::bit_cast<double>(bits + d));
      }
    }
  };
  // Every double within 4096 ulps of each bucket bound, as the pow
  // expression states it and as the table found it.
  for (size_t i = 1; i < LogHistogram::NumBuckets(); ++i) {
    around(LogHistogram::BucketLowerBound(i), 4096);
    around(LogHistogram::Table().lower[i], 4096);
  }
  around(LogHistogram::kMinTracked, 16);
  around(LogHistogram::kMaxTracked, 16);
  check(0.0);
  for (const double v : {std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::min() / 3.0,
                         std::nextafter(std::numeric_limits<double>::min(),
                                        0.0),
                         std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::max()}) {
    check(v);
  }
  // 1e7 random finite positive doubles over every exponent, and 1e7 over
  // the tracked range, where nearly all of the work lands.
  std::mt19937_64 rng(20261019);
  const uint64_t lo = std::bit_cast<uint64_t>(LogHistogram::kMinTracked);
  const uint64_t hi = std::bit_cast<uint64_t>(LogHistogram::kMaxTracked);
  std::uniform_int_distribution<uint64_t> tracked(lo, hi);
  for (int i = 0; i < 10000000; ++i) {
    const uint64_t bits = rng() & 0x7FFFFFFFFFFFFFFFu;
    if ((bits >> 52) != 0x7FF) {
      check(std::bit_cast<double>(bits));
    }
    check(std::bit_cast<double>(tracked(rng)));
  }
  EXPECT_EQ(mismatches, 0u) << "over " << checks << " doubles";
  EXPECT_GT(checks, 20000000u);
  // NaN is outside the contract, but must not index the table.
  EXPECT_EQ(LogHistogram::BucketIndex(std::nan("")), 0u);
}

TEST(LogHistogramTest, InjectedBoundsAdoptedNotMinMergedWithZero) {
  // The sharded-histogram merge path: bucket counts arrive by injection
  // (leaving placeholder 0.0 bounds), then real bounds are injected. The
  // exported min must be the injected one, not 0.
  LogHistogram hist;
  hist.InjectBucketCount(LogHistogram::BucketIndex(35.5), 2);
  hist.InjectBounds(35.4, 36.1);
  EXPECT_DOUBLE_EQ(hist.min(), 35.4);
  EXPECT_DOUBLE_EQ(hist.max(), 36.1);
  // A second injection (another shard) min/max-merges.
  hist.InjectBucketCount(LogHistogram::BucketIndex(12.0), 1);
  hist.InjectBounds(12.0, 12.0);
  EXPECT_DOUBLE_EQ(hist.min(), 12.0);
  EXPECT_DOUBLE_EQ(hist.max(), 36.1);
}

TEST(LogHistogramTest, InjectBoundsOnEmptyIsIgnored) {
  LogHistogram hist;
  hist.InjectBounds(3.0, 4.0);  // no counts: nothing to bound
  EXPECT_DOUBLE_EQ(hist.min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.max(), 0.0);
}

TEST(LogHistogramTest, ApproxQuantileWithinBucketResolution) {
  LogHistogram hist;
  Rng rng(19);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = 50.0 + 100.0 * rng.NextDouble();
    samples.push_back(v);
    hist.Record(v);
  }
  // 5 buckets per decade => bucket edges are ~58% apart; the bucket
  // midpoint approximation should land within that resolution.
  for (double q : {0.5, 0.9, 0.99}) {
    const double exact = Quantile(samples, q);
    EXPECT_NEAR(hist.ApproxQuantile(q) / exact, 1.0, 0.35) << "q=" << q;
  }
}

// --------------------------------------------------------- distributions

struct DistCase {
  DistributionKind kind;
  double mean;
};

class DistributionMeanTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributionMeanTest, SampleMeanMatchesAnalyticMean) {
  const DistCase param = GetParam();
  const auto dist = MakeDistribution(param.kind, param.mean);
  ASSERT_NE(dist, nullptr);
  EXPECT_NEAR(dist->Mean(), param.mean, param.mean * 1e-6);
  Rng rng(31);
  StreamingStats stats;
  const int n = param.kind == DistributionKind::kPareto ? 2000000 : 200000;
  for (int i = 0; i < n; ++i) {
    const double x = dist->Sample(rng);
    ASSERT_GE(x, 0.0);
    stats.Add(x);
  }
  // Heavy tails converge slowly; tolerate 15% there, 2% elsewhere.
  const double tol = param.kind == DistributionKind::kPareto ? 0.15 : 0.02;
  EXPECT_NEAR(stats.mean(), param.mean, param.mean * tol)
      << dist->Describe();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DistributionMeanTest,
    ::testing::Values(
        DistCase{DistributionKind::kExponential, 10.0},
        DistCase{DistributionKind::kExponential, 0.5},
        DistCase{DistributionKind::kDeterministic, 42.0},
        DistCase{DistributionKind::kUniform, 8.0},
        DistCase{DistributionKind::kLognormal, 30.0},
        DistCase{DistributionKind::kWeibull, 12.0},
        DistCase{DistributionKind::kHyperexponential, 25.0},
        DistCase{DistributionKind::kPareto, 20.0}));

TEST(DistributionTest, ExponentialVariance) {
  ExponentialDistribution dist(0.25);
  EXPECT_DOUBLE_EQ(dist.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(dist.Variance(), 16.0);
}

TEST(DistributionTest, DeterministicHasZeroVariance) {
  DeterministicDistribution dist(3.0);
  Rng rng(1);
  EXPECT_DOUBLE_EQ(dist.Sample(rng), 3.0);
  EXPECT_DOUBLE_EQ(dist.Variance(), 0.0);
}

TEST(DistributionTest, ParetoSamplesAboveScaleAndCapped) {
  ParetoDistribution dist(0.5, 2.0, 100.0);
  Rng rng(3);
  for (int i = 0; i < 100000; ++i) {
    const double x = dist.Sample(rng);
    EXPECT_GE(x, 2.0);
    EXPECT_LE(x, 200.0);
  }
}

TEST(DistributionTest, ParetoWithMeanHitsTarget) {
  const auto dist = ParetoDistribution::WithMean(0.5, 10.0);
  EXPECT_NEAR(dist.Mean(), 10.0, 1e-9);
}

TEST(DistributionTest, LognormalCovRealized) {
  LognormalDistribution dist(20.0, 0.5);
  Rng rng(13);
  StreamingStats stats;
  for (int i = 0; i < 400000; ++i) {
    stats.Add(dist.Sample(rng));
  }
  EXPECT_NEAR(stats.mean(), 20.0, 0.3);
  EXPECT_NEAR(stats.cov(), 0.5, 0.02);
}

TEST(DistributionTest, WeibullMomentsMatchAnalytic) {
  WeibullDistribution dist(0.8, 5.0);
  Rng rng(41);
  StreamingStats stats;
  for (int i = 0; i < 400000; ++i) {
    stats.Add(dist.Sample(rng));
  }
  EXPECT_NEAR(stats.mean(), dist.Mean(), 0.02 * dist.Mean());
  EXPECT_NEAR(stats.variance(), dist.Variance(), 0.05 * dist.Variance());
}

TEST(DistributionTest, WeibullShapeOneIsExponential) {
  // k = 1 reduces to exponential with rate 1/scale.
  WeibullDistribution weibull(1.0, 4.0);
  EXPECT_NEAR(weibull.Mean(), 4.0, 1e-9);
  EXPECT_NEAR(weibull.Variance(), 16.0, 1e-9);
}

TEST(DistributionTest, WeibullWithMeanHitsTarget) {
  const auto dist = WeibullDistribution::WithMean(0.7, 9.0);
  EXPECT_NEAR(dist.Mean(), 9.0, 1e-9);
}

TEST(DistributionTest, HyperexponentialMomentsAndBurstiness) {
  HyperexponentialDistribution dist(0.3, 1.0, 0.1);
  Rng rng(43);
  StreamingStats stats;
  for (int i = 0; i < 400000; ++i) {
    stats.Add(dist.Sample(rng));
  }
  EXPECT_NEAR(stats.mean(), dist.Mean(), 0.02 * dist.Mean());
  EXPECT_NEAR(stats.variance(), dist.Variance(), 0.05 * dist.Variance());
  // CoV strictly above exponential's 1.
  EXPECT_GT(std::sqrt(dist.Variance()) / dist.Mean(), 1.1);
}

TEST(DistributionTest, NewKindsInvalidParamsThrow) {
  EXPECT_THROW(WeibullDistribution(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(WeibullDistribution(1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(HyperexponentialDistribution(-0.1, 1.0, 1.0),
               std::invalid_argument);
  EXPECT_THROW(HyperexponentialDistribution(0.5, 0.0, 1.0),
               std::invalid_argument);
}

TEST(DistributionTest, EmpiricalResamplesOnlyGivenValues) {
  EmpiricalDistribution dist({1.0, 2.0, 3.0});
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = dist.Sample(rng);
    EXPECT_TRUE(x == 1.0 || x == 2.0 || x == 3.0);
  }
  EXPECT_DOUBLE_EQ(dist.Mean(), 2.0);
}

TEST(DistributionTest, InvalidParametersThrow) {
  EXPECT_THROW(ExponentialDistribution(0.0), std::invalid_argument);
  EXPECT_THROW(ParetoDistribution(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(DeterministicDistribution(-1.0), std::invalid_argument);
  EXPECT_THROW(UniformDistribution(5.0, 2.0), std::invalid_argument);
  EXPECT_THROW(LognormalDistribution(0.0, 0.5), std::invalid_argument);
  EXPECT_THROW(EmpiricalDistribution({}), std::invalid_argument);
  EXPECT_THROW(MakeDistribution(DistributionKind::kEmpirical, 1.0),
               std::invalid_argument);
}

TEST(DistributionTest, KindNames) {
  EXPECT_EQ(ToString(DistributionKind::kExponential), "exponential");
  EXPECT_EQ(ToString(DistributionKind::kPareto), "pareto");
  EXPECT_EQ(ToString(DistributionKind::kDeterministic), "deterministic");
}

// -------------------------------------------------------------- table

TEST(TableTest, AlignsColumnsAndCountsRows) {
  TextTable table({"name", "value"});
  table.AddRow({"a", TextTable::Num(1.5)});
  table.AddRow({"bee", TextTable::Pct(0.25)});
  EXPECT_EQ(table.row_count(), 2u);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("1.50"), std::string::npos);
  EXPECT_NE(out.find("25.0%"), std::string::npos);
}

TEST(TableTest, ShortRowsArePadded) {
  TextTable table({"a", "b", "c"});
  table.AddRow({"only"});
  EXPECT_EQ(table.ToString(), "a     b  c  \n------------\nonly        \n");
}

// --------------------------------------------------------- thread pool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(64);
  pool.ParallelFor(64, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ReusableAfterWait) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(10, [&](size_t) { counter.fetch_add(1); });
  pool.ParallelFor(10, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace msprint
