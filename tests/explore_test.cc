// Tests for the policy explorer: simulated annealing against models with
// known optima, the budget/SLO search, and the Few-to-Many / Adrenaline
// baseline adaptations.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/explore/explorer.h"

namespace msprint {
namespace {

// A model with a known convex response-time curve in the timeout.
class ConvexModel final : public PerformanceModel {
 public:
  explicit ConvexModel(double best_timeout) : best_(best_timeout) {}
  std::string name() const override { return "Convex"; }
  double PredictResponseTime(const WorkloadProfile&,
                             const ModelInput& input) const override {
    const double d = input.timeout_seconds - best_;
    return 100.0 + 0.01 * d * d;
  }

 private:
  double best_;
};

// Two local minima; the global one sits at timeout 250.
class BimodalModel final : public PerformanceModel {
 public:
  std::string name() const override { return "Bimodal"; }
  double PredictResponseTime(const WorkloadProfile&,
                             const ModelInput& input) const override {
    const double t = input.timeout_seconds;
    const double local = 120.0 + 0.02 * (t - 40.0) * (t - 40.0);
    const double global = 80.0 + 0.02 * (t - 250.0) * (t - 250.0);
    return std::min(local, global);
  }
};

WorkloadProfile DummyProfile() {
  WorkloadProfile profile;
  profile.service_rate_per_second = 1.0 / 60.0;
  profile.marginal_rate_per_second = 1.4 / 60.0;
  Rng rng(5);
  const LognormalDistribution jitter(60.0, 0.2);
  for (int i = 0; i < 400; ++i) {
    profile.service_time_samples.push_back(jitter.Sample(rng));
  }
  return profile;
}

TEST(AnnealingTest, FindsConvexMinimum) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.max_iterations = 400;
  const ExploreResult result =
      ExploreTimeout(model, profile, ModelInput{}, config);
  EXPECT_NEAR(result.best_timeout_seconds, 140.0, 10.0);
  EXPECT_NEAR(result.best_response_time, 100.0, 1.0);
  EXPECT_EQ(result.trajectory.size(), 400u);
}

TEST(AnnealingTest, EscapesLocalMinimum) {
  const BimodalModel model;
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.max_iterations = 600;
  config.seed = 17;
  const ExploreResult result =
      ExploreTimeout(model, profile, ModelInput{}, config);
  // Must land in the global basin, not the 120-second local one.
  EXPECT_NEAR(result.best_timeout_seconds, 250.0, 25.0);
  EXPECT_LT(result.best_response_time, 85.0);
}

TEST(AnnealingTest, RespectsBounds) {
  const ConvexModel model(1000.0);  // optimum outside the search range
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.timeout_max_seconds = 200.0;
  config.max_iterations = 300;
  const ExploreResult result =
      ExploreTimeout(model, profile, ModelInput{}, config);
  EXPECT_LE(result.best_timeout_seconds, 200.0);
  EXPECT_GE(result.best_timeout_seconds, 0.0);
  // Pushed against the feasible edge.
  EXPECT_GT(result.best_timeout_seconds, 150.0);
}

TEST(AnnealingTest, TrajectoryRecordsAcceptedMoves) {
  const ConvexModel model(100.0);
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.max_iterations = 50;
  const ExploreResult result =
      ExploreTimeout(model, profile, ModelInput{}, config);
  size_t accepted = 0;
  for (const auto& step : result.trajectory) {
    if (step.accepted) {
      ++accepted;
    }
  }
  EXPECT_GT(accepted, 0u);
}

// Counts its predictions, so a test can tell that none ran.
class CountingModel final : public PerformanceModel {
 public:
  std::string name() const override { return "Counting"; }
  double PredictResponseTime(const WorkloadProfile&,
                             const ModelInput&) const override {
    ++calls;
    return 100.0;
  }

  mutable std::atomic<int> calls{0};
};

TEST(AnnealingTest, UnusableConfigThrowsBeforeAnyPrediction) {
  const CountingModel model;
  const WorkloadProfile profile = DummyProfile();
  const std::pair<const char*, std::function<void(ExploreConfig&)>> cases[] =
      {{"max_iterations", [](ExploreConfig& c) { c.max_iterations = 0; }},
       {"num_chains", [](ExploreConfig& c) { c.num_chains = 0; }},
       // Z would decay at iter % 0, an integer division by zero.
       {"z_decay_period", [](ExploreConfig& c) { c.z_decay_period = 0; }},
       // std::clamp is undefined for an inverted range.
       {"timeout_max_seconds", [](ExploreConfig& c) {
          c.timeout_min_seconds = 200.0;
          c.timeout_max_seconds = 100.0;
        }}};
  for (const auto& [field, spoil] : cases) {
    ExploreConfig config;
    spoil(config);
    const std::function<void()> searches[] = {
        [&] { ExploreTimeout(model, profile, ModelInput{}, config); },
        [&] {
          FindCheapestPolicyMeetingSlo(model, profile, ModelInput{}, {0.2},
                                       50.0, /*optimize_timeout=*/true,
                                       config);
        }};
    for (const auto& search : searches) {
      try {
        search();
        ADD_FAILURE() << field << " was accepted";
      } catch (const std::invalid_argument& error) {
        EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
            << error.what();
      }
    }
  }
  EXPECT_EQ(model.calls.load(), 0);
  // Without timeout optimization the budget search never explores, so the
  // explorer settings go unused.
  ExploreConfig unused;
  unused.max_iterations = 0;
  EXPECT_NO_THROW(FindCheapestPolicyMeetingSlo(
      model, profile, ModelInput{}, {0.2}, 50.0,
      /*optimize_timeout=*/false, unused));
}

TEST(BudgetSearchTest, PicksCheapestFeasibleBudget) {
  // Response time improves with budget: RT = 200 - 100 * budget_fraction.
  class BudgetModel final : public PerformanceModel {
   public:
    std::string name() const override { return "Budget"; }
    double PredictResponseTime(const WorkloadProfile&,
                               const ModelInput& input) const override {
      return 200.0 - 100.0 * input.budget_fraction;
    }
  };
  const BudgetModel model;
  const WorkloadProfile profile = DummyProfile();
  const auto result = FindCheapestPolicyMeetingSlo(
      model, profile, ModelInput{}, {0.1, 0.2, 0.4, 0.8}, 170.0,
      /*optimize_timeout=*/false, ExploreConfig{});
  ASSERT_TRUE(result.feasible);
  // 0.1 -> 190 (misses), 0.2 -> 180 (misses), 0.4 -> 160 (meets).
  EXPECT_DOUBLE_EQ(result.budget_fraction, 0.4);
  EXPECT_DOUBLE_EQ(result.predicted_response_time, 160.0);
}

TEST(BudgetSearchTest, InfeasibleSloReported) {
  const ConvexModel model(50.0);  // RT >= 100 everywhere
  const WorkloadProfile profile = DummyProfile();
  const auto result = FindCheapestPolicyMeetingSlo(
      model, profile, ModelInput{}, {0.2, 0.8}, 50.0,
      /*optimize_timeout=*/false, ExploreConfig{});
  EXPECT_FALSE(result.feasible);
}

// ------------------------------------------------- prepared-path oracle
//
// A prepared prediction replays one draw per (utilization, arrival kind);
// PredictResponseTime draws afresh. The two must agree bit for bit, and a
// model that forwards only PredictResponseTime — so it inherits the
// default, per-call Prepare — is the reference for the explorer and the
// budget search.

// Rows over the conditions and policies a grid covers, each with a made-up
// effective speedup for the forest to learn; no calibration run needed.
WorkloadProfile TrainingProfile() {
  WorkloadProfile profile = DummyProfile();
  for (DistributionKind kind :
       {DistributionKind::kExponential, DistributionKind::kPareto}) {
    for (double utilization : {0.3, 0.5, 0.7, 0.9}) {
      for (double timeout : {0.0, 60.0, 180.0}) {
        for (double budget : {0.1, 0.5, 0.9}) {
          ProfileRow row;
          row.utilization = utilization;
          row.arrival_kind = kind;
          row.timeout_seconds = timeout;
          row.refill_seconds = 200.0;
          row.budget_fraction = budget;
          row.observed_mean_response_time = 90.0;
          row.effective_speedup =
              1.0 + 0.4 * budget - 0.2 * utilization + timeout / 1000.0;
          profile.rows.push_back(row);
        }
      }
    }
  }
  return profile;
}

class ForwardingModel final : public PerformanceModel {
 public:
  explicit ForwardingModel(const PerformanceModel& inner) : inner_(inner) {}
  std::string name() const override { return "Forwarding"; }
  double PredictResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input) const override {
    return inner_.PredictResponseTime(profile, input);
  }

 private:
  const PerformanceModel& inner_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameExploreResult(const ExploreResult& a, const ExploreResult& b) {
  if (!SameBits(a.best_timeout_seconds, b.best_timeout_seconds) ||
      !SameBits(a.best_response_time, b.best_response_time) ||
      a.trajectory.size() != b.trajectory.size()) {
    return false;
  }
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    if (!SameBits(a.trajectory[i].timeout_seconds,
                  b.trajectory[i].timeout_seconds) ||
        !SameBits(a.trajectory[i].predicted_response_time,
                  b.trajectory[i].predicted_response_time) ||
        a.trajectory[i].accepted != b.trajectory[i].accepted) {
      return false;
    }
  }
  return true;
}

class PreparedPathTest : public ::testing::Test {
 protected:
  // Small runs keep hundreds of simulated predictions quick.
  const PredictionSimConfig sim_{2000, 200, 2, 97};
  const WorkloadProfile profile_ = TrainingProfile();
  const HybridModel hybrid_ = HybridModel::Train({&profile_}, {}, sim_);
  const NoMlModel no_ml_{sim_};

  // The models that simulate, so prepare by drawing once.
  std::vector<const PerformanceModel*> Simulating() const {
    return {&hybrid_, &no_ml_};
  }
};

TEST_F(PreparedPathTest, PredictionsMatchPredictResponseTimeBitForBit) {
  Rng rng(2024);
  size_t compared = 0;
  for (const PerformanceModel* model : Simulating()) {
    for (DistributionKind kind :
         {DistributionKind::kExponential, DistributionKind::kPareto}) {
      for (int b = 0; b < 2; ++b) {
        ModelInput base;
        base.utilization = 0.2 + 0.75 * rng.NextDouble();
        base.arrival_kind = kind;
        const PerformanceModel::Predictor predict =
            model->Prepare(profile_, base);
        for (int i = 0; i < 128; ++i) {
          // Timeouts from 0 to never firing, budgets from 0 to 1, and
          // refills across an order of magnitude.
          ModelInput input = base;
          const uint64_t pick = rng.NextBounded(8);
          input.timeout_seconds = pick == 0   ? 0.0
                                  : pick == 1 ? 1e12
                                              : 400.0 * rng.NextDouble();
          input.budget_fraction = pick == 2   ? 0.0
                                  : pick == 3 ? 1.0
                                              : rng.NextDouble();
          input.refill_seconds = 20.0 + 1980.0 * rng.NextDouble();
          ASSERT_TRUE(SameBits(predict(input),
                               model->PredictResponseTime(profile_, input)))
              << model->name() << " base " << base.utilization << " input "
              << i;
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 1024u);
}

TEST_F(PreparedPathTest, ChangedConditionsThrow) {
  const ForwardingModel forwarding(hybrid_);
  ModelInput base;
  base.utilization = 0.6;
  std::vector<const PerformanceModel*> models = Simulating();
  models.push_back(&forwarding);
  for (const PerformanceModel* model : models) {
    const PerformanceModel::Predictor predict = model->Prepare(profile_, base);
    ModelInput other = base;
    other.utilization = 0.61;
    EXPECT_THROW(predict(other), std::invalid_argument) << model->name();
    other = base;
    other.arrival_kind = DistributionKind::kPareto;
    EXPECT_THROW(predict(other), std::invalid_argument) << model->name();
    other = base;
    other.timeout_seconds = 5.0;
    other.budget_fraction = 0.9;
    other.refill_seconds = 900.0;
    EXPECT_NO_THROW(predict(other)) << model->name();
  }
}

TEST_F(PreparedPathTest, ExplorerMatchesForwardingModelBitForBit) {
  ModelInput base;
  base.utilization = 0.7;
  base.budget_fraction = 0.3;
  base.refill_seconds = 300.0;
  for (const PerformanceModel* model : Simulating()) {
    const ForwardingModel reference(*model);
    for (size_t chains : {1u, 4u}) {
      ExploreConfig config;
      config.max_iterations = 80;
      config.num_chains = chains;
      config.seed = 11;
      EXPECT_TRUE(SameExploreResult(
          ExploreTimeout(*model, profile_, base, config),
          ExploreTimeout(reference, profile_, base, config)))
          << model->name() << " chains " << chains;
    }

    ModelInput mid = base;
    mid.budget_fraction = 0.5;
    const std::vector<double> fractions = {0.9, 0.05, 0.5, 0.2};
    ExploreConfig config;
    config.max_iterations = 30;
    // An SLO met part-way through the fractions, and one never met.
    for (double slo : {model->PredictResponseTime(profile_, mid), 0.0}) {
      for (bool optimize : {false, true}) {
        const BudgetSearchResult got = FindCheapestPolicyMeetingSlo(
            *model, profile_, base, fractions, slo, optimize, config);
        const BudgetSearchResult want = FindCheapestPolicyMeetingSlo(
            reference, profile_, base, fractions, slo, optimize, config);
        EXPECT_EQ(got.feasible, want.feasible);
        EXPECT_TRUE(SameBits(got.budget_fraction, want.budget_fraction));
        EXPECT_TRUE(SameBits(got.timeout_seconds, want.timeout_seconds));
        EXPECT_TRUE(SameBits(got.predicted_response_time,
                             want.predicted_response_time))
            << model->name() << " slo " << slo << " optimize " << optimize;
      }
    }
  }
}

// ----------------------------------------------------------- baselines

TEST(BaselineTest, FewToManyReturnsTimeoutThatDrainsBudget) {
  const WorkloadProfile profile = DummyProfile();
  ModelInput base;
  base.utilization = 0.8;
  base.budget_fraction = 0.2;
  base.refill_seconds = 200.0;
  const double timeout = FewToManyTimeout(profile, base);
  EXPECT_GE(timeout, 0.0);
  EXPECT_LE(timeout, 300.0);
}

TEST(BaselineTest, FewToManyTightBudgetGivesLargerTimeoutThanLoose) {
  const WorkloadProfile profile = DummyProfile();
  ModelInput tight;
  tight.utilization = 0.8;
  tight.budget_fraction = 0.05;
  tight.refill_seconds = 200.0;
  ModelInput loose = tight;
  loose.budget_fraction = 0.9;
  // With a tight budget only the slowest queries can sprint (large
  // timeout); a loose budget is only exhausted by sprinting aggressively.
  EXPECT_GE(FewToManyTimeout(profile, tight),
            FewToManyTimeout(profile, loose));
}

TEST(BaselineTest, AdrenalineTimeoutNearNoSprintP85) {
  const WorkloadProfile profile = DummyProfile();
  ModelInput base;
  base.utilization = 0.5;
  const double timeout = AdrenalineTimeout(profile, base);
  // At 50% utilization with ~60 s services, the 85th percentile response
  // time sits above the mean service time but well below heavy-queue
  // territory.
  EXPECT_GT(timeout, 60.0);
  EXPECT_LT(timeout, 400.0);
}

TEST(BaselineTest, AdrenalineGrowsWithUtilization) {
  const WorkloadProfile profile = DummyProfile();
  ModelInput low;
  low.utilization = 0.3;
  ModelInput high;
  high.utilization = 0.9;
  EXPECT_LT(AdrenalineTimeout(profile, low),
            AdrenalineTimeout(profile, high));
}

}  // namespace
}  // namespace msprint
