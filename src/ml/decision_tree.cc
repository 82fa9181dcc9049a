#include "src/ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "src/ml/linear_regression.h"

namespace msprint {

namespace {

// Sum and sum-of-squares accumulator for fast variance-gain evaluation.
struct Moments {
  double n = 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void Add(double y) {
    n += 1.0;
    sum += y;
    sum_sq += y * y;
  }
  void Remove(double y) {
    n -= 1.0;
    sum -= y;
    sum_sq -= y * y;
  }
  // Total (not mean) squared deviation: n * variance.
  double SumSquaredDeviation() const {
    if (n <= 0.0) {
      return 0.0;
    }
    return std::max(0.0, sum_sq - sum * sum / n);
  }
};

}  // namespace

DecisionTree DecisionTree::Fit(const Dataset& data,
                               const DecisionTreeConfig& config) {
  if (data.NumRows() == 0) {
    throw std::invalid_argument("cannot fit tree on empty dataset");
  }
  DecisionTree tree;
  tree.anchor_feature_ = config.anchor_feature;
  std::vector<size_t> rows(data.NumRows());
  std::iota(rows.begin(), rows.end(), 0);
  tree.root_ = tree.Build(data, rows, config, 0);
  return tree;
}

int DecisionTree::MakeLeaf(const Dataset& data,
                           const std::vector<size_t>& rows,
                           const DecisionTreeConfig& config) {
  Node leaf;
  leaf.is_leaf = true;
  double sum = 0.0;
  for (size_t r : rows) {
    sum += data.Target(r);
  }
  leaf.mean = sum / static_cast<double>(rows.size());

  if (config.anchor_feature.has_value() && rows.size() >= 2) {
    const size_t a = *config.anchor_feature;
    std::vector<double> x, y;
    x.reserve(rows.size());
    y.reserve(rows.size());
    for (size_t r : rows) {
      x.push_back(data.Row(r)[a]);
      y.push_back(data.Target(r));
    }
    const double xmin = *std::min_element(x.begin(), x.end());
    const double xmax = *std::max_element(x.begin(), x.end());
    if (xmax - xmin > 1e-12) {
      const LineFit fit = FitLine(x, y);
      leaf.has_model = true;
      leaf.slope = fit.slope;
      leaf.bias = fit.intercept;
    }
  }
  nodes_.push_back(leaf);
  return static_cast<int>(nodes_.size() - 1);
}

int DecisionTree::Build(const Dataset& data, const std::vector<size_t>& rows,
                        const DecisionTreeConfig& config, size_t depth) {
  if (rows.size() < 2 * config.min_samples_leaf ||
      depth >= config.max_depth) {
    return MakeLeaf(data, rows, config);
  }

  // Parent variance (Equation 3's VS).
  Moments parent;
  for (size_t r : rows) {
    parent.Add(data.Target(r));
  }
  const double parent_ssd = parent.SumSquaredDeviation();
  if (parent_ssd < 1e-12) {
    return MakeLeaf(data, rows, config);  // already pure
  }

  std::vector<size_t> features = config.allowed_features;
  if (features.empty()) {
    features.resize(data.NumFeatures());
    std::iota(features.begin(), features.end(), 0);
  }

  double best_gain = config.min_gain * parent_ssd;
  size_t best_feature = 0;
  double best_threshold = 0.0;
  bool found = false;

  std::vector<std::pair<double, double>> ordered;  // (feature value, target)
  ordered.reserve(rows.size());

  for (size_t f : features) {
    ordered.clear();
    for (size_t r : rows) {
      ordered.emplace_back(data.Row(r)[f], data.Target(r));
    }
    std::sort(ordered.begin(), ordered.end());
    if (ordered.front().first == ordered.back().first) {
      continue;  // constant feature
    }
    // Sweep split positions, keeping left/right moments incrementally.
    Moments left;
    Moments right = parent;
    for (size_t i = 0; i + 1 < ordered.size(); ++i) {
      left.Add(ordered[i].second);
      right.Remove(ordered[i].second);
      if (ordered[i].first == ordered[i + 1].first) {
        continue;  // can't split between equal values
      }
      if (left.n < static_cast<double>(config.min_samples_leaf) ||
          right.n < static_cast<double>(config.min_samples_leaf)) {
        continue;
      }
      // Equation 3's gain with the subset/complement variances averaged;
      // using the sum of squared deviations keeps the comparison exact.
      const double child_ssd =
          left.SumSquaredDeviation() + right.SumSquaredDeviation();
      const double gain = parent_ssd - child_ssd;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = f;
        best_threshold = 0.5 * (ordered[i].first + ordered[i + 1].first);
        found = true;
      }
    }
  }

  if (!found) {
    return MakeLeaf(data, rows, config);
  }

  std::vector<size_t> left_rows, right_rows;
  for (size_t r : rows) {
    if (data.Row(r)[best_feature] <= best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }

  // Reserve our slot before recursing so children get stable indices.
  nodes_.emplace_back();
  const int self = static_cast<int>(nodes_.size() - 1);
  const int left = Build(data, left_rows, config, depth + 1);
  const int right = Build(data, right_rows, config, depth + 1);
  Node& node = nodes_[static_cast<size_t>(self)];
  node.is_leaf = false;
  node.split_feature = best_feature;
  node.split_threshold = best_threshold;
  node.left = left;
  node.right = right;
  return self;
}

double DecisionTree::Predict(const std::vector<double>& features) const {
  int idx = root_;
  while (true) {
    const Node& node = nodes_[static_cast<size_t>(idx)];
    if (node.is_leaf) {
      if (node.has_model && anchor_feature_.has_value()) {
        return node.slope * features[*anchor_feature_] + node.bias;
      }
      return node.mean;
    }
    idx = features[node.split_feature] <= node.split_threshold ? node.left
                                                               : node.right;
  }
}

size_t DecisionTree::DepthFrom(int node) const {
  const Node& n = nodes_[static_cast<size_t>(node)];
  if (n.is_leaf) {
    return 1;
  }
  return 1 + std::max(DepthFrom(n.left), DepthFrom(n.right));
}

size_t DecisionTree::Depth() const {
  return root_ < 0 ? 0 : DepthFrom(root_);
}

namespace {

// Serialized footprint of one node, for the pre-allocation count cap.
constexpr size_t kNodeWireBytes = 8 + 8 + 8 + 8 + 1 + 8 + 1 + 8 + 8;

}  // namespace

void DecisionTree::Serialize(persist::Writer& w) const {
  w.PutBool(anchor_feature_.has_value());
  w.PutU64(anchor_feature_.value_or(0));
  w.PutI64(root_);
  w.PutU64(nodes_.size());
  for (const Node& node : nodes_) {
    w.PutI64(node.left);
    w.PutI64(node.right);
    w.PutU64(node.split_feature);
    w.PutF64(node.split_threshold);
    w.PutBool(node.is_leaf);
    w.PutF64(node.mean);
    w.PutBool(node.has_model);
    w.PutF64(node.slope);
    w.PutF64(node.bias);
  }
}

DecisionTree DecisionTree::Deserialize(persist::Reader& r,
                                       size_t num_features) {
  using persist::ErrorCode;
  using persist::PersistError;

  DecisionTree tree;
  const bool has_anchor = r.GetBool();
  const uint64_t anchor = r.GetU64();
  if (has_anchor) {
    if (anchor >= num_features) {
      throw PersistError(ErrorCode::kFormat,
                         "tree anchor feature out of range");
    }
    tree.anchor_feature_ = static_cast<size_t>(anchor);
  }
  const int64_t root = r.GetI64();
  const uint64_t count = r.GetCount(kNodeWireBytes, "tree node");
  if (count == 0 || root < 0 || root >= static_cast<int64_t>(count)) {
    throw PersistError(ErrorCode::kFormat, "tree root out of range");
  }
  tree.root_ = static_cast<int>(root);
  tree.nodes_.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    Node node;
    const int64_t left = r.GetI64();
    const int64_t right = r.GetI64();
    node.split_feature = static_cast<size_t>(r.GetU64());
    node.split_threshold = r.GetF64();
    node.is_leaf = r.GetBool();
    node.mean = r.GetF64();
    node.has_model = r.GetBool();
    node.slope = r.GetF64();
    node.bias = r.GetF64();
    if (node.is_leaf) {
      if (left != -1 || right != -1) {
        throw PersistError(ErrorCode::kFormat, "leaf node with children");
      }
      if (!std::isfinite(node.mean) || !std::isfinite(node.slope) ||
          !std::isfinite(node.bias)) {
        throw PersistError(ErrorCode::kFormat, "non-finite leaf payload");
      }
    } else {
      // Children must point strictly forward; this is the invariant
      // construction guarantees and what makes Predict cycle-free.
      if (left <= static_cast<int64_t>(i) || right <= static_cast<int64_t>(i) ||
          left >= static_cast<int64_t>(count) ||
          right >= static_cast<int64_t>(count)) {
        throw PersistError(ErrorCode::kFormat,
                           "tree child index not strictly forward");
      }
      if (node.split_feature >= num_features) {
        throw PersistError(ErrorCode::kFormat,
                           "tree split feature out of range");
      }
      if (!std::isfinite(node.split_threshold)) {
        throw PersistError(ErrorCode::kFormat,
                           "non-finite tree split threshold");
      }
    }
    node.left = static_cast<int>(left);
    node.right = static_cast<int>(right);
    tree.nodes_.push_back(node);
  }
  return tree;
}

}  // namespace msprint
