// Streaming and batch statistics used throughout profiling, modeling and
// the experiment harnesses: Welford mean/variance, quantiles, empirical
// CDFs, and the error metrics the paper reports (absolute relative error,
// median error, coefficient of variation).

#ifndef MSPRINT_SRC_COMMON_STATS_H_
#define MSPRINT_SRC_COMMON_STATS_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace msprint {

// Single-pass mean/variance accumulator (Welford's algorithm).
class StreamingStats {
 public:
  void Add(double x);

  size_t count() const { return count_; }
  double mean() const;
  // Population variance (divides by n).
  double variance() const;
  double stddev() const;
  // Coefficient of variation: stddev / mean (0 when mean is 0).
  double cov() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Quantile of a sample using linear interpolation between order statistics
// (type-7, the numpy/R default). q is clamped to [0, 1]; an empty sample or
// a NaN q throws std::invalid_argument. Works on its own copy and selects
// the two order statistics it reads rather than sorting the whole sample.
double Quantile(std::vector<double> values, double q);

// Median shorthand.
double Median(std::vector<double> values);

// Absolute relative error |predicted - observed| / observed.
// Returns |predicted| when observed == 0.
double AbsoluteRelativeError(double predicted, double observed);

// An empirical CDF: sorted support points with cumulative probabilities.
class EmpiricalCdf {
 public:
  explicit EmpiricalCdf(std::vector<double> values);

  // P(X <= x).
  double Probability(double x) const;

  // Inverse CDF (quantile) for q in [0,1].
  double Value(double q) const;

  size_t size() const { return sorted_.size(); }
  const std::vector<double>& sorted_values() const { return sorted_; }

 private:
  std::vector<double> sorted_;
};

// Fraction of `values` strictly greater than `threshold` — used for tail
// latency accounting (e.g. the paper's ">335 seconds" 99th percentile cut).
double TailFraction(const std::vector<double>& values, double threshold);

// The repo-wide nearest-rank rule: 1-based rank of the sample a quantile
// estimator should return for fraction `q` over `count` samples. Shared by
// LogHistogram::ApproxQuantile, the SLO engine and QuantileSketch so every
// quantile consumer agrees bit for bit.
inline uint64_t QuantileRankTarget(uint64_t count, double q) {
  q = q < 0.0 ? 0.0 : (q > 1.0 ? 1.0 : q);
  return std::min<uint64_t>(
      count, 1 + static_cast<uint64_t>(q * static_cast<double>(count - 1)));
}

// Log-bucketed histogram for non-negative measurements (durations, byte
// counts, queue depths). Buckets grow geometrically — kBucketsPerDecade per
// factor of ten between kMinTracked and kMaxTracked, plus an underflow and
// an overflow bucket — so the whole dynamic range of a latency distribution
// fits in ~100 integer counters. Because the state is integer bucket counts
// plus exact min/max (both order-independent reductions), summing shards in
// any order yields bit-identical summaries: this is the backing store of
// the deterministic metrics exports in src/obs.
//
// NaN, negative and non-finite samples are rejected (counted, not
// bucketed). Mean and quantiles are bucket approximations: each bucket is
// represented by the geometric midpoint of its bounds, clamped to the
// observed [min, max]. Header-only so the per-sample record paths (here
// and in obs::Histogram) inline the bucket math.
class LogHistogram {
 public:
  static constexpr double kMinTracked = 1e-9;
  static constexpr double kMaxTracked = 1e12;
  static constexpr size_t kBucketsPerDecade = 5;
  static constexpr size_t kDecades = 21;  // 1e-9 .. 1e12
  // Underflow bucket 0, overflow bucket NumBuckets() - 1.
  static constexpr size_t NumBuckets() {
    return kDecades * kBucketsPerDecade + 2;
  }

  // Bucket index of a finite, non-negative value: 1 + floor(5 *
  // log10(v / kMinTracked)), clamped to the tracked buckets. A table gives
  // the bucket at the start of v's binary octave; an octave spans
  // log10(2) * 5 ~ 1.5 buckets, so two compares against bucket lower
  // bounds finish the job without calling std::log10.
  static size_t BucketIndex(double v) {
    if (!(v >= kMinTracked)) {  // a NaN must not index the table
      return 0;
    }
    if (v >= kMaxTracked) {
      return NumBuckets() - 1;
    }
    const BucketTable& table = Table();
    size_t index = table.octave_bucket[(std::bit_cast<uint64_t>(v) >> 52) -
                                       kFirstOctave];
    index += static_cast<size_t>(v >= table.lower[index + 1]);
    index += static_cast<size_t>(v >= table.lower[index + 1]);
    return index;
  }

  // Lower bound of bucket `i` (0 for the underflow bucket).
  static double BucketLowerBound(size_t i) {
    if (i == 0) {
      return 0.0;
    }
    if (i >= NumBuckets() - 1) {
      return kMaxTracked;
    }
    return kMinTracked *
           std::pow(10.0, static_cast<double>(i - 1) /
                              static_cast<double>(kBucketsPerDecade));
  }

  static double BucketUpperBound(size_t i) {
    if (i == 0) {
      return kMinTracked;
    }
    if (i >= NumBuckets() - 1) {
      return kMaxTracked * 10.0;
    }
    return kMinTracked *
           std::pow(10.0, static_cast<double>(i) /
                              static_cast<double>(kBucketsPerDecade));
  }

  // BucketIndex's lookup tables, built once by bisection over the bit
  // patterns of doubles from the log10 expression above, so they
  // reproduce that expression's mapping on any libm. `lower[i]` is the
  // smallest double in bucket i for 1 <= i < NumBuckets();
  // `octave_bucket[e - kFirstOctave]` is the bucket of the smallest
  // tracked double whose biased binary exponent is e.
  static constexpr uint64_t kFirstOctave =
      std::bit_cast<uint64_t>(kMinTracked) >> 52;
  static constexpr uint64_t kLastOctave =
      (std::bit_cast<uint64_t>(kMaxTracked) - 1) >> 52;
  struct BucketTable {
    double lower[kDecades * kBucketsPerDecade + 2];  // NumBuckets()
    uint8_t octave_bucket[kLastOctave - kFirstOctave + 1];
  };
  static const BucketTable& Table() {
    static const BucketTable table = BuildBucketTable();
    return table;
  }
  static BucketTable BuildBucketTable();

  LogHistogram() : buckets_(NumBuckets(), 0) {}

  // Records one sample; returns false (and counts the rejection) for NaN,
  // negative or non-finite values.
  bool Record(double v) {
    if (!std::isfinite(v) || v < 0.0) {
      ++rejected_;
      return false;
    }
    if (!has_bounds_) {
      min_ = v;
      max_ = v;
      has_bounds_ = true;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    ++count_;
    ++buckets_[BucketIndex(v)];
    return true;
  }

  // Raw injection hooks for merging sharded atomic state (src/obs) into a
  // summarizable histogram. Inject buckets first, then bounds.
  void InjectBucketCount(size_t index, uint64_t n) {
    buckets_[index] += n;
    count_ += n;
  }
  void InjectRejected(uint64_t n) { rejected_ += n; }
  void InjectBounds(double min_value, double max_value) {
    if (count_ == 0) {
      return;
    }
    if (!has_bounds_) {
      // Bucket counts arrived by injection, which leaves the default 0/0
      // bounds in place — adopt the injected extremes outright instead of
      // min-merging against that placeholder zero.
      min_ = min_value;
      max_ = max_value;
      has_bounds_ = true;
    } else {
      min_ = std::min(min_, min_value);
      max_ = std::max(max_, max_value);
    }
  }

  uint64_t count() const { return count_; }
  uint64_t rejected() const { return rejected_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }

  // Representative value of bucket `i`: the geometric midpoint of its
  // bounds, clamped to the observed range (the boundary buckets use the
  // exact observed extremes).
  double BucketRepresentative(size_t i) const {
    double value;
    if (i == 0) {
      value = min();
    } else if (i >= NumBuckets() - 1) {
      value = max();
    } else {
      value = std::sqrt(BucketLowerBound(i) * BucketUpperBound(i));
    }
    return std::clamp(value, min(), max());
  }

  // Bucket-approximated quantile for q in [0,1]; 0 on an empty histogram.
  double ApproxQuantile(double q) const {
    if (count_ == 0) {
      return 0.0;
    }
    const uint64_t target = QuantileRankTarget(count_, q);
    uint64_t cumulative = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      cumulative += buckets_[i];
      if (cumulative >= target) {
        return BucketRepresentative(i);
      }
    }
    return max();
  }

  // Bucket-approximated mean; 0 on an empty histogram.
  double ApproxMean() const {
    if (count_ == 0) {
      return 0.0;
    }
    double sum = 0.0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      if (buckets_[i] > 0) {
        sum += static_cast<double>(buckets_[i]) * BucketRepresentative(i);
      }
    }
    return sum / static_cast<double>(count_);
  }

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t rejected_ = 0;
  bool has_bounds_ = false;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_COMMON_STATS_H_
