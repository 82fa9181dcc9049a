// Feature-matrix dataset shared by the ML models. Rows are profiling runs;
// columns are workload conditions and sprinting policy parameters (the
// predictive features F of Section 2.4); the target is either the effective
// sprint rate (hybrid model) or response time (direct ANN baseline).

#ifndef MSPRINT_SRC_ML_DATASET_H_
#define MSPRINT_SRC_ML_DATASET_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/persist/persist.h"

namespace msprint {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::vector<std::string> feature_names);

  void Add(std::vector<double> features, double target);

  size_t NumRows() const { return rows_.size(); }
  size_t NumFeatures() const { return feature_names_.size(); }
  bool Empty() const { return rows_.empty(); }

  const std::vector<double>& Row(size_t i) const { return rows_[i]; }
  double Target(size_t i) const { return targets_[i]; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::vector<double>& targets() const { return targets_; }

  // Dataset restricted to the given row indices (with repetition allowed —
  // used for bootstrap subsamples).
  Dataset Subset(const std::vector<size_t>& indices) const;

  // Mean and stddev per feature column (stddev floored at 1e-12), plus the
  // same for the target; used by the ANN to standardize inputs.
  struct Standardization {
    std::vector<double> feature_mean;
    std::vector<double> feature_std;
    double target_mean = 0.0;
    double target_std = 1.0;
  };
  Standardization ComputeStandardization() const;

 private:
  std::vector<std::string> feature_names_;
  std::vector<std::vector<double>> rows_;
  std::vector<double> targets_;
};

// Persists a fitted Standardization; round trips are bit-exact. Loading
// revalidates that means/stds are parallel vectors and every std is
// strictly positive (ComputeStandardization floors them at 1e-12), so a
// restored ANN can never divide by zero. Throws persist::PersistError.
void SerializeStandardization(const Dataset::Standardization& s,
                              persist::Writer& w);
Dataset::Standardization DeserializeStandardization(persist::Reader& r);

}  // namespace msprint

#endif  // MSPRINT_SRC_ML_DATASET_H_
