#include "src/common/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msprint {

void StreamingStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void StreamingStats::Merge(const StreamingStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = n1 + n2;
  mean_ += delta * n2 / total;
  m2_ += other.m2_ + delta * delta * n1 * n2 / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double StreamingStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double StreamingStats::variance() const {
  return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double StreamingStats::cov() const {
  const double m = mean();
  return m == 0.0 ? 0.0 : stddev() / m;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::invalid_argument("quantile of empty sample");
  }
  if (std::isnan(q)) {
    // clamp(NaN) stays NaN and static_cast<size_t>(NaN) is UB — reject.
    throw std::invalid_argument("quantile fraction must not be NaN");
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Only two order statistics are read, so select them: after
  // nth_element the lo-th smallest sits at lo and nothing after it is
  // smaller, so the hi-th smallest is the minimum of that tail.
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double lo_value = *lo_it;
  const double hi_value =
      hi == lo ? lo_value : *std::min_element(lo_it + 1, values.end());
  return lo_value * (1.0 - frac) + hi_value * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double AbsoluteRelativeError(double predicted, double observed) {
  if (observed == 0.0) {
    return std::abs(predicted);
  }
  return std::abs(predicted - observed) / std::abs(observed);
}

double MedianAbsoluteRelativeError(const std::vector<double>& predicted,
                                   const std::vector<double>& observed) {
  if (predicted.size() != observed.size() || predicted.empty()) {
    throw std::invalid_argument("mismatched or empty error vectors");
  }
  std::vector<double> errors;
  errors.reserve(predicted.size());
  for (size_t i = 0; i < predicted.size(); ++i) {
    errors.push_back(AbsoluteRelativeError(predicted[i], observed[i]));
  }
  return Median(std::move(errors));
}

EmpiricalCdf::EmpiricalCdf(std::vector<double> values)
    : sorted_(std::move(values)) {
  if (sorted_.empty()) {
    throw std::invalid_argument("empirical CDF of empty sample");
  }
  std::sort(sorted_.begin(), sorted_.end());
}

double EmpiricalCdf::Probability(double x) const {
  const auto it = std::upper_bound(sorted_.begin(), sorted_.end(), x);
  return static_cast<double>(it - sorted_.begin()) /
         static_cast<double>(sorted_.size());
}

double EmpiricalCdf::Value(double q) const {
  return Quantile(sorted_, q);
}

std::vector<std::pair<double, double>> EmpiricalCdf::AtThresholds(
    const std::vector<double>& thresholds) const {
  std::vector<std::pair<double, double>> out;
  out.reserve(thresholds.size());
  for (double t : thresholds) {
    out.emplace_back(t, Probability(t));
  }
  return out;
}

double TailFraction(const std::vector<double>& values, double threshold) {
  if (values.empty()) {
    return 0.0;
  }
  size_t n = 0;
  for (double v : values) {
    if (v > threshold) {
      ++n;
    }
  }
  return static_cast<double>(n) / static_cast<double>(values.size());
}

}  // namespace msprint
