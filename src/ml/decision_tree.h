// Regression tree in the style of Section 2.4: internal nodes split on a
// predictive feature by the variance-reduction gain of Equation 3; when a
// branch runs out of useful splits, the leaf holds a linear regression over
// the remaining samples. Trees are grown deep and unpruned — the paper
// explicitly eschews pruning because "shorter trees ignore the complex
// effects of some workload conditions [and] sprinting policy parameters".
//
// Features are numeric, so "a proper subset of the feature settings and its
// complement" is realized as the best binary threshold split (<= t vs > t),
// the standard numeric-feature reduction of ID3-style gain.
//
// The leaf regression mirrors Figure 5's leaves ("mu_e = 1.2 mu_m + 1 qps"):
// by default it regresses the target on a single designated anchor feature
// (the marginal sprint rate), falling back to the leaf mean when the anchor
// is constant within the leaf.

#ifndef MSPRINT_SRC_ML_DECISION_TREE_H_
#define MSPRINT_SRC_ML_DECISION_TREE_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "src/ml/dataset.h"
#include "src/persist/persist.h"

namespace msprint {

struct DecisionTreeConfig {
  size_t min_samples_leaf = 4;
  size_t max_depth = 64;  // effectively unbounded; ablations cap it
  // Feature index whose linear relationship the leaves capture (the
  // marginal sprint rate in the hybrid model). nullopt => leaves predict
  // the mean target.
  std::optional<size_t> anchor_feature;
  // Features the tree may split on (empty => all). Random forests pass a
  // random subset here (Fig 5's column subsampling).
  std::vector<size_t> allowed_features;
  // Minimum fractional variance gain to accept a split.
  double min_gain = 1e-9;
};

class DecisionTree {
 public:
  static DecisionTree Fit(const Dataset& data,
                          const DecisionTreeConfig& config);

  double Predict(const std::vector<double>& features) const;

  size_t NodeCount() const { return nodes_.size(); }
  size_t Depth() const;

  // Appends the fitted tree to `w`; round trips are bit-exact.
  void Serialize(persist::Writer& w) const;
  // Rebuilds a tree written by Serialize, bounding feature indices by
  // `num_features` and revalidating the structural invariant that child
  // indices strictly exceed their parent's — the property that guarantees
  // Predict terminates. Throws persist::PersistError on any violation.
  static DecisionTree Deserialize(persist::Reader& r, size_t num_features);

 private:
  struct Node {
    // Internal node.
    int left = -1;
    int right = -1;
    size_t split_feature = 0;
    double split_threshold = 0.0;
    // Leaf payload.
    bool is_leaf = false;
    double mean = 0.0;
    bool has_model = false;
    double slope = 0.0;      // target ~ slope * anchor + bias
    double bias = 0.0;
  };

  DecisionTree() = default;

  int Build(const Dataset& data, const std::vector<size_t>& rows,
            const DecisionTreeConfig& config, size_t depth);
  int MakeLeaf(const Dataset& data, const std::vector<size_t>& rows,
               const DecisionTreeConfig& config);
  size_t DepthFrom(int node) const;

  std::vector<Node> nodes_;
  int root_ = -1;
  std::optional<size_t> anchor_feature_;
};

}  // namespace msprint

#endif  // MSPRINT_SRC_ML_DECISION_TREE_H_
