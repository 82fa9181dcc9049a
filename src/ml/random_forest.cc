#include "src/ml/random_forest.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/common/rng.h"

namespace msprint {

RandomForest RandomForest::Fit(const Dataset& data,
                               const RandomForestConfig& config,
                               ThreadPool* pool) {
  if (data.NumRows() == 0 || config.num_trees == 0) {
    throw std::invalid_argument("invalid forest inputs");
  }
  const size_t n = data.NumRows();
  const size_t f = data.NumFeatures();
  const size_t rows_per_tree = std::max<size_t>(
      1, static_cast<size_t>(config.row_fraction * static_cast<double>(n)));
  const size_t features_per_tree = std::max<size_t>(
      1, static_cast<size_t>(config.feature_fraction *
                             static_cast<double>(f)));

  // Tree t draws its bootstrap and feature subset from an independent
  // DeriveSeed(config.seed, t) stream and writes only slot t, so the
  // result does not depend on how trees are scheduled across the pool.
  std::vector<std::optional<DecisionTree>> trees(config.num_trees);
  auto fit_tree = [&](size_t t) {
    Rng rng(DeriveSeed(config.seed, t));
    // Bootstrap rows (with replacement).
    std::vector<size_t> rows(rows_per_tree);
    for (auto& r : rows) {
      r = rng.NextBounded(n);
    }
    // Random feature subset; the anchor feature is always retained so every
    // tree can route samples toward its leaf regressions sensibly.
    std::vector<size_t> features(f);
    std::iota(features.begin(), features.end(), 0);
    for (size_t i = features.size(); i > 1; --i) {
      std::swap(features[i - 1], features[rng.NextBounded(i)]);
    }
    features.resize(features_per_tree);
    if (config.anchor_feature.has_value() &&
        std::find(features.begin(), features.end(),
                  *config.anchor_feature) == features.end()) {
      features.push_back(*config.anchor_feature);
    }

    DecisionTreeConfig tree_config;
    tree_config.min_samples_leaf = config.min_samples_leaf;
    tree_config.max_depth = config.max_depth;
    tree_config.anchor_feature = config.anchor_feature;
    tree_config.allowed_features = std::move(features);
    trees[t].emplace(DecisionTree::Fit(data.Subset(rows), tree_config));
  };
  ResolvePool(pool).ParallelFor(config.num_trees, fit_tree, /*grain=*/1);

  RandomForest forest;
  forest.trees_.reserve(config.num_trees);
  for (auto& tree : trees) {
    forest.trees_.push_back(std::move(*tree));
  }
  return forest;
}

double RandomForest::Predict(const std::vector<double>& features) const {
  double acc = 0.0;
  for (const auto& tree : trees_) {
    acc += tree.Predict(features);
  }
  return acc / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::PredictPerTree(
    const std::vector<double>& features) const {
  std::vector<double> votes;
  votes.reserve(trees_.size());
  for (const auto& tree : trees_) {
    votes.push_back(tree.Predict(features));
  }
  return votes;
}

void RandomForest::Serialize(persist::Writer& w) const {
  w.PutU64(trees_.size());
  for (const DecisionTree& tree : trees_) {
    tree.Serialize(w);
  }
}

RandomForest RandomForest::Deserialize(persist::Reader& r,
                                       size_t num_features) {
  // A serialized tree occupies at least the anchor/root/count preamble.
  const uint64_t count = r.GetCount(1 + 8 + 8 + 8, "forest tree");
  if (count == 0) {
    throw persist::PersistError(persist::ErrorCode::kFormat,
                                "forest with zero trees");
  }
  RandomForest forest;
  forest.trees_.reserve(static_cast<size_t>(count));
  for (uint64_t t = 0; t < count; ++t) {
    forest.trees_.push_back(DecisionTree::Deserialize(r, num_features));
  }
  return forest;
}

}  // namespace msprint
