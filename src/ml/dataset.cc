#include "src/ml/dataset.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace msprint {

Dataset::Dataset(std::vector<std::string> feature_names)
    : feature_names_(std::move(feature_names)) {}

void Dataset::Add(std::vector<double> features, double target) {
  if (features.size() != feature_names_.size()) {
    throw std::invalid_argument("feature vector width mismatch");
  }
  rows_.push_back(std::move(features));
  targets_.push_back(target);
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out(feature_names_);
  for (size_t i : indices) {
    out.Add(rows_.at(i), targets_.at(i));
  }
  return out;
}

Dataset::Standardization Dataset::ComputeStandardization() const {
  Standardization s;
  const size_t f = NumFeatures();
  const size_t n = NumRows();
  s.feature_mean.assign(f, 0.0);
  s.feature_std.assign(f, 1.0);
  if (n == 0) {
    return s;
  }
  for (const auto& row : rows_) {
    for (size_t j = 0; j < f; ++j) {
      s.feature_mean[j] += row[j];
    }
  }
  for (size_t j = 0; j < f; ++j) {
    s.feature_mean[j] /= static_cast<double>(n);
  }
  std::vector<double> sum_sq(f, 0.0);
  for (const auto& row : rows_) {
    for (size_t j = 0; j < f; ++j) {
      const double d = row[j] - s.feature_mean[j];
      sum_sq[j] += d * d;
    }
  }
  for (size_t j = 0; j < f; ++j) {
    const double var = sum_sq[j] / static_cast<double>(n);
    s.feature_std[j] = std::max(1e-12, std::sqrt(var));
  }
  double tsum = 0.0;
  for (double t : targets_) {
    tsum += t;
  }
  s.target_mean = tsum / static_cast<double>(n);
  double tvar = 0.0;
  for (double t : targets_) {
    tvar += (t - s.target_mean) * (t - s.target_mean);
  }
  s.target_std = std::max(1e-12, std::sqrt(tvar / static_cast<double>(n)));
  return s;
}

void SerializeStandardization(const Dataset::Standardization& s,
                              persist::Writer& w) {
  w.PutDoubles(s.feature_mean);
  w.PutDoubles(s.feature_std);
  w.PutF64(s.target_mean);
  w.PutF64(s.target_std);
}

Dataset::Standardization DeserializeStandardization(persist::Reader& r) {
  Dataset::Standardization s;
  s.feature_mean = r.GetDoubles();
  s.feature_std = r.GetDoubles();
  s.target_mean = r.GetFiniteF64("standardization target mean");
  s.target_std = r.GetFiniteF64("standardization target std");
  if (s.feature_std.size() != s.feature_mean.size()) {
    throw persist::PersistError(
        persist::ErrorCode::kFormat,
        "standardization mean/std vectors differ in length");
  }
  for (const double sd : s.feature_std) {
    if (sd <= 0.0) {
      throw persist::PersistError(persist::ErrorCode::kFormat,
                                  "standardization feature std must be > 0");
    }
  }
  if (s.target_std <= 0.0) {
    throw persist::PersistError(persist::ErrorCode::kFormat,
                                "standardization target std must be > 0");
  }
  return s;
}

}  // namespace msprint
