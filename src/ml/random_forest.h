// Random decision forest (Section 2.4, Figure 5): bagged deep regression
// trees, each grown on a bootstrap subsample of profiling runs and a random
// subset of the predictive features, with linear-regression leaves anchored
// on the marginal sprint rate. The forest prediction averages the per-tree
// leaf regressions — Figure 5's "votes" (mu_e = 1.225 mu_m + 1 qps from
// averaging 1.5/1.2/1.2/1.0 slopes).

#ifndef MSPRINT_SRC_ML_RANDOM_FOREST_H_
#define MSPRINT_SRC_ML_RANDOM_FOREST_H_

#include <optional>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/ml/decision_tree.h"

namespace msprint {

struct RandomForestConfig {
  size_t num_trees = 10;  // Table 1(A): "random forest (10 trees)"
  double row_fraction = 0.9;
  double feature_fraction = 0.7;
  size_t min_samples_leaf = 4;
  size_t max_depth = 64;
  std::optional<size_t> anchor_feature;
  uint64_t seed = 7;
};

class RandomForest {
 public:
  // Trains the forest, growing trees concurrently on `pool` (nullptr: the
  // shared global pool). Tree t draws every random choice from its own
  // DeriveSeed(config.seed, t) stream, so the fitted forest is
  // bit-identical for any pool size, including serial.
  static RandomForest Fit(const Dataset& data,
                          const RandomForestConfig& config,
                          ThreadPool* pool = nullptr);

  double Predict(const std::vector<double>& features) const;

  // Per-tree predictions (the "votes"), for inspection and tests.
  std::vector<double> PredictPerTree(const std::vector<double>& features)
      const;

  size_t TreeCount() const { return trees_.size(); }

  // Appends the fitted forest to `w`; round trips are bit-exact, so a
  // restored forest votes byte-identically.
  void Serialize(persist::Writer& w) const;
  // Rebuilds a forest written by Serialize; every tree is revalidated
  // against `num_features`. Throws persist::PersistError on malformed
  // input.
  static RandomForest Deserialize(persist::Reader& r, size_t num_features);

 private:
  std::vector<DecisionTree> trees_;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_ML_RANDOM_FOREST_H_
