// Tests for the from-scratch ML stack: dataset plumbing, the leaves' line
// fit, variance-reduction trees with linear leaves, bagged forests, and the
// ANN.

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.h"
#include "src/ml/dataset.h"
#include "src/ml/decision_tree.h"
#include "src/ml/linear_regression.h"
#include "src/ml/neural_net.h"
#include "src/ml/random_forest.h"

namespace msprint {
namespace {

// ---------------------------------------------------------------- dataset

TEST(DatasetTest, AddAndAccess) {
  Dataset data({"x", "y"});
  data.Add({1.0, 2.0}, 3.0);
  data.Add({4.0, 5.0}, 6.0);
  EXPECT_EQ(data.NumRows(), 2u);
  EXPECT_EQ(data.NumFeatures(), 2u);
  EXPECT_DOUBLE_EQ(data.Row(1)[0], 4.0);
  EXPECT_DOUBLE_EQ(data.Target(1), 6.0);
  EXPECT_THROW(data.Add({1.0}, 0.0), std::invalid_argument);
}

TEST(DatasetTest, SubsetWithRepeats) {
  Dataset data({"x"});
  data.Add({1.0}, 10.0);
  data.Add({2.0}, 20.0);
  const Dataset subset = data.Subset({0, 0, 1});
  EXPECT_EQ(subset.NumRows(), 3u);
  EXPECT_DOUBLE_EQ(subset.Target(1), 10.0);
}

TEST(DatasetTest, Standardization) {
  Dataset data({"x"});
  data.Add({2.0}, 10.0);
  data.Add({4.0}, 20.0);
  data.Add({6.0}, 30.0);
  const auto s = data.ComputeStandardization();
  EXPECT_DOUBLE_EQ(s.feature_mean[0], 4.0);
  EXPECT_NEAR(s.feature_std[0], std::sqrt(8.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.target_mean, 20.0);
}

// ------------------------------------------------------ linear regression

TEST(LinearRegressionTest, FitSimpleMatchesClosedForm) {
  const LineFit fit = FitLine({1, 2, 3, 4}, {3, 5, 7, 9});  // y = 2x + 1
  EXPECT_NEAR(fit.slope, 2.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-9);
}

TEST(LinearRegressionTest, ConstantFeatureFallsBackToMean) {
  const LineFit fit = FitLine({2, 2, 2}, {1, 2, 3});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
  EXPECT_DOUBLE_EQ(fit.intercept, 2.0);
}

// ------------------------------------------------------------------ trees

Dataset StepFunctionData(size_t n, uint64_t seed) {
  // Target is a step function of x0 plus a linear term in the anchor x1.
  Dataset data({"x0", "anchor"});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double x0 = rng.NextDouble() * 10.0;
    const double anchor = rng.NextDouble() * 4.0;
    const double step = x0 < 3.0 ? 10.0 : (x0 < 7.0 ? 20.0 : 35.0);
    data.Add({x0, anchor}, step + 1.5 * anchor);
  }
  return data;
}

TEST(DecisionTreeTest, LearnsStepPlusLinearStructure) {
  const Dataset train = StepFunctionData(600, 1);
  DecisionTreeConfig config;
  config.anchor_feature = 1;
  config.min_samples_leaf = 8;
  const auto tree = DecisionTree::Fit(train, config);
  const Dataset test = StepFunctionData(200, 2);
  double worst = 0.0;
  for (size_t i = 0; i < test.NumRows(); ++i) {
    worst = std::max(worst,
                     std::abs(tree.Predict(test.Row(i)) - test.Target(i)));
  }
  EXPECT_LT(worst, 2.5);
}

TEST(DecisionTreeTest, PureTargetsYieldSingleLeaf) {
  Dataset data({"x"});
  for (int i = 0; i < 50; ++i) {
    data.Add({static_cast<double>(i)}, 42.0);
  }
  const auto tree = DecisionTree::Fit(data, {});
  EXPECT_EQ(tree.NodeCount(), 1u);
  EXPECT_DOUBLE_EQ(tree.Predict({17.0}), 42.0);
}

TEST(DecisionTreeTest, MaxDepthCapsGrowth) {
  const Dataset train = StepFunctionData(600, 3);
  DecisionTreeConfig shallow;
  shallow.max_depth = 2;
  DecisionTreeConfig deep;
  deep.max_depth = 64;
  // Depth() counts nodes along the longest path, so a max_depth of 2
  // (split levels) yields at most 3 node levels.
  EXPECT_LE(DecisionTree::Fit(train, shallow).Depth(), 3u);
  EXPECT_GT(DecisionTree::Fit(train, deep).Depth(),
            DecisionTree::Fit(train, shallow).Depth());
}

TEST(DecisionTreeTest, RestrictedFeaturesRespected) {
  const Dataset train = StepFunctionData(400, 4);
  DecisionTreeConfig config;
  config.allowed_features = {1};  // forbid the step feature
  config.anchor_feature = 1;
  const auto tree = DecisionTree::Fit(train, config);
  // Without x0 the step structure is invisible; error must be large for
  // points deep in different steps.
  const double lo = tree.Predict({1.0, 2.0});
  const double hi = tree.Predict({9.0, 2.0});
  EXPECT_NEAR(lo, hi, 12.0);  // same prediction path modulo anchor splits
}

TEST(DecisionTreeTest, EmptyDataThrows) {
  EXPECT_THROW(DecisionTree::Fit(Dataset({"x"}), {}),
               std::invalid_argument);
}

// ----------------------------------------------------------------- forest

TEST(RandomForestTest, BeatsSingleTreeOnNoisyData) {
  Dataset train({"x0", "anchor"});
  Rng rng(9);
  auto truth = [](double x0, double anchor) {
    return (x0 < 5.0 ? 10.0 : 25.0) + 2.0 * anchor;
  };
  for (int i = 0; i < 500; ++i) {
    const double x0 = rng.NextDouble() * 10.0;
    const double anchor = rng.NextDouble() * 4.0;
    train.Add({x0, anchor}, truth(x0, anchor) + rng.NextGaussian() * 2.0);
  }
  RandomForestConfig forest_config;
  forest_config.num_trees = 20;
  forest_config.anchor_feature = 1;
  const auto forest = RandomForest::Fit(train, forest_config);

  DecisionTreeConfig tree_config;
  tree_config.anchor_feature = 1;
  tree_config.min_samples_leaf = 2;  // deliberately overfit
  const auto tree = DecisionTree::Fit(train, tree_config);

  double forest_se = 0.0;
  double tree_se = 0.0;
  Rng test_rng(10);
  const int n_test = 300;
  for (int i = 0; i < n_test; ++i) {
    const double x0 = test_rng.NextDouble() * 10.0;
    const double anchor = test_rng.NextDouble() * 4.0;
    const double y = truth(x0, anchor);
    forest_se += std::pow(forest.Predict({x0, anchor}) - y, 2);
    tree_se += std::pow(tree.Predict({x0, anchor}) - y, 2);
  }
  EXPECT_LT(forest_se, tree_se);
}

TEST(RandomForestTest, VotesAverageToPrediction) {
  const Dataset train = StepFunctionData(300, 11);
  RandomForestConfig config;
  config.num_trees = 10;
  config.anchor_feature = 1;
  const auto forest = RandomForest::Fit(train, config);
  EXPECT_EQ(forest.TreeCount(), 10u);
  const std::vector<double> features = {5.0, 2.0};
  const auto votes = forest.PredictPerTree(features);
  ASSERT_EQ(votes.size(), 10u);
  double mean = 0.0;
  for (double v : votes) {
    mean += v;
  }
  mean /= 10.0;
  EXPECT_NEAR(forest.Predict(features), mean, 1e-12);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  const Dataset train = StepFunctionData(300, 12);
  RandomForestConfig config;
  config.seed = 99;
  const auto a = RandomForest::Fit(train, config);
  const auto b = RandomForest::Fit(train, config);
  EXPECT_DOUBLE_EQ(a.Predict({4.0, 1.0}), b.Predict({4.0, 1.0}));
}

TEST(RandomForestTest, InvalidInputsThrow) {
  EXPECT_THROW(RandomForest::Fit(Dataset({"x"}), {}), std::invalid_argument);
  Dataset data({"x"});
  data.Add({1.0}, 1.0);
  RandomForestConfig config;
  config.num_trees = 0;
  EXPECT_THROW(RandomForest::Fit(data, config), std::invalid_argument);
}

// -------------------------------------------------------------------- ANN

TEST(NeuralNetTest, FitsLinearFunction) {
  Dataset data({"a", "b"});
  Rng rng(21);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.NextDouble() * 2.0 - 1.0;
    const double b = rng.NextDouble() * 2.0 - 1.0;
    data.Add({a, b}, 2.0 * a - b + 0.5);
  }
  NeuralNetConfig config;
  config.hidden_layers = {16, 16};
  config.epochs = 300;
  const auto net = NeuralNet::Fit(data, config);
  double worst = 0.0;
  Rng test_rng(22);
  for (int i = 0; i < 100; ++i) {
    const double a = test_rng.NextDouble() * 2.0 - 1.0;
    const double b = test_rng.NextDouble() * 2.0 - 1.0;
    worst = std::max(worst,
                     std::abs(net.Predict({a, b}) - (2.0 * a - b + 0.5)));
  }
  EXPECT_LT(worst, 0.25);
  EXPECT_LT(net.final_training_mse(), 0.01);
}

TEST(NeuralNetTest, FitsMildNonlinearity) {
  Dataset data({"x"});
  Rng rng(31);
  for (int i = 0; i < 600; ++i) {
    const double x = rng.NextDouble() * 2.0 - 1.0;
    data.Add({x}, x * x);
  }
  NeuralNetConfig config;
  config.hidden_layers = {32, 32};
  config.epochs = 600;
  const auto net = NeuralNet::Fit(data, config);
  EXPECT_NEAR(net.Predict({0.0}), 0.0, 0.1);
  EXPECT_NEAR(net.Predict({0.8}), 0.64, 0.12);
  EXPECT_NEAR(net.Predict({-0.8}), 0.64, 0.12);
}

TEST(NeuralNetTest, PaperShapeHasTenLayers) {
  const auto config = NeuralNetConfig::PaperShape();
  EXPECT_EQ(config.hidden_layers.size(), 10u);
  for (size_t width : config.hidden_layers) {
    EXPECT_EQ(width, 100u);
  }
}

TEST(NeuralNetTest, PredictValidatesWidth) {
  Dataset data({"a", "b"});
  data.Add({0.0, 0.0}, 0.0);
  data.Add({1.0, 1.0}, 1.0);
  NeuralNetConfig config;
  config.hidden_layers = {4};
  config.epochs = 10;
  const auto net = NeuralNet::Fit(data, config);
  EXPECT_THROW(net.Predict({1.0}), std::invalid_argument);
}

TEST(NeuralNetTest, EmptyDataThrows) {
  EXPECT_THROW(NeuralNet::Fit(Dataset({"x"}), {}), std::invalid_argument);
}

}  // namespace
}  // namespace msprint
