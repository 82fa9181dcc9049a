// Tests for the core modeling layer: feature encoding, effective-sprint-
// rate calibration (Equation 2), the three performance models and the
// evaluation harness. Heavier end-to-end accuracy checks live in
// integration_test.cc; these tests use small synthetic profiles.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/effective_rate.h"
#include "src/core/evaluation.h"
#include "src/core/models.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/profiler/profiler.h"

namespace msprint {
namespace {

// A hand-built profile whose "observations" come from the simulator itself
// at a known speedup — calibration must recover that speedup.
WorkloadProfile SyntheticProfile(double true_speedup,
                                 double utilization = 0.6) {
  WorkloadProfile profile;
  profile.service_rate_per_second = 1.0 / 60.0;  // 60 qph
  profile.marginal_rate_per_second = 1.45 / 60.0;
  Rng rng(55);
  const LognormalDistribution jitter(60.0, 0.2);
  for (int i = 0; i < 600; ++i) {
    profile.service_time_samples.push_back(jitter.Sample(rng));
  }

  ProfileRow row;
  row.utilization = utilization;
  row.arrival_kind = DistributionKind::kExponential;
  row.timeout_seconds = 40.0;
  row.refill_seconds = 200.0;
  row.budget_fraction = 0.4;

  const EmpiricalDistribution service(profile.service_time_samples);
  CalibrationConfig calibration;
  const ModelInput input = ModelInput::FromRow(row);
  row.observed_mean_response_time = SimulatedResponseTime(
      profile, input, service, true_speedup, calibration);
  profile.rows.push_back(row);
  return profile;
}

TEST(FeatureTest, EncodingMatchesNames) {
  const WorkloadProfile profile = SyntheticProfile(1.3);
  ModelInput input;
  input.utilization = 0.75;
  input.arrival_kind = DistributionKind::kPareto;
  input.timeout_seconds = 80.0;
  input.refill_seconds = 500.0;
  input.budget_fraction = 0.6;
  const auto features = EncodeFeatures(profile, input);
  const auto& names = ModelFeatureNames();
  ASSERT_EQ(features.size(), names.size());
  EXPECT_DOUBLE_EQ(features[0], 0.75 * 60.0);  // lambda qph
  EXPECT_DOUBLE_EQ(features[1], 60.0);         // mu qph
  EXPECT_NEAR(features[2], 87.0, 1e-9);        // mu_m qph
  EXPECT_DOUBLE_EQ(features[4], 1.0);          // pareto flag
  EXPECT_DOUBLE_EQ(features[5], 80.0);
  EXPECT_EQ(names[MarginalRateFeatureIndex()], "marginal_rate_qph");
}

TEST(CalibrationTest, RecoversKnownSpeedup) {
  for (double true_speedup : {1.1, 1.3, 1.45}) {
    WorkloadProfile profile = SyntheticProfile(true_speedup);
    const EmpiricalDistribution service(profile.service_time_samples);
    CalibrationConfig config;
    const double calibrated = CalibrateEffectiveSpeedup(
        profile, profile.rows[0], service, config);
    // Response time is fairly flat in speedup for small budgets, so allow
    // a loose band; the direction and rough magnitude must be right.
    EXPECT_NEAR(calibrated, true_speedup, 0.12) << true_speedup;
  }
}

TEST(CalibrationTest, MarginalWithinToleranceReturnsMarginal) {
  // Observation generated at exactly the marginal speedup: Equation 2 must
  // prefer the smallest change, i.e. return mu_m itself.
  WorkloadProfile profile = SyntheticProfile(1.45);
  const EmpiricalDistribution service(profile.service_time_samples);
  CalibrationConfig config;
  const double calibrated =
      CalibrateEffectiveSpeedup(profile, profile.rows[0], service, config);
  EXPECT_DOUBLE_EQ(calibrated, profile.MarginalSpeedup());
}

TEST(CalibrationTest, UnreachablyFastObservationClampsHigh) {
  WorkloadProfile profile = SyntheticProfile(1.3);
  profile.rows[0].observed_mean_response_time *= 0.2;  // implausibly fast
  const EmpiricalDistribution service(profile.service_time_samples);
  CalibrationConfig config;
  const double calibrated =
      CalibrateEffectiveSpeedup(profile, profile.rows[0], service, config);
  EXPECT_NEAR(calibrated, profile.MarginalSpeedup() * config.max_speedup_factor,
              1e-9);
}

TEST(CalibrationTest, UnreachablySlowObservationClampsLow) {
  WorkloadProfile profile = SyntheticProfile(1.3);
  profile.rows[0].observed_mean_response_time *= 10.0;
  const EmpiricalDistribution service(profile.service_time_samples);
  CalibrationConfig config;
  const double calibrated =
      CalibrateEffectiveSpeedup(profile, profile.rows[0], service, config);
  EXPECT_DOUBLE_EQ(calibrated, config.min_speedup);
}

TEST(CalibrationTest, CalibrateProfileFillsAllRows) {
  WorkloadProfile profile = SyntheticProfile(1.25);
  profile.rows.push_back(profile.rows[0]);
  profile.rows[1].timeout_seconds = 120.0;
  CalibrationConfig config;
  config.sim_queries = 4000;
  config.sim_warmup = 400;
  ThreadPool pool(2);
  EXPECT_EQ(CalibrateProfile(profile, config, &pool), 2u);
  for (const auto& row : profile.rows) {
    EXPECT_GT(row.effective_speedup, 0.0);
  }
}

TEST(CalibrationTest, NonPositiveObservedMeanThrows) {
  // Library callers can bypass the profile loader's check.
  WorkloadProfile profile = SyntheticProfile(1.3);
  const EmpiricalDistribution service(profile.service_time_samples);
  const CalibrationConfig config;
  for (double bad : {0.0, -5.0, std::nan("")}) {
    profile.rows[0].observed_mean_response_time = bad;
    EXPECT_THROW(
        CalibrateEffectiveSpeedup(profile, profile.rows[0], service, config),
        std::invalid_argument)
        << bad;
  }
}

// With no post-warmup query or no replication every simulated mean reads
// 0, and the search would clamp every row to min_speedup. Both entry
// points refuse such settings, naming the field, before any simulation
// runs: no row is written and no simulator counter moves.
TEST(CalibrationTest, UnusableSimSettingsThrowBeforeSimulating) {
  WorkloadProfile profile = SyntheticProfile(1.3);
  for (double timeout : {80.0, 160.0}) {
    profile.rows.push_back(profile.rows[0]);
    profile.rows.back().timeout_seconds = timeout;
  }
  for (ProfileRow& row : profile.rows) {
    row.effective_speedup = -1.0;
  }
  const EmpiricalDistribution service(profile.service_time_samples);
  CalibrationConfig all_warmup;
  all_warmup.sim_warmup = all_warmup.sim_queries;
  CalibrationConfig no_replications;
  no_replications.sim_replications = 0;
  CalibrationConfig no_queries;
  no_queries.sim_queries = 0;
  no_queries.sim_warmup = 0;
  const std::pair<const char*, CalibrationConfig> cases[] = {
      {"warmup", all_warmup},
      {"replications", no_replications},
      {"num_queries", no_queries}};

  auto expect_refused = [](const char* field, auto calibrate) {
    obs::MetricsRegistry metrics;
    obs::ObsSession session(&metrics, nullptr);
    try {
      calibrate();
      ADD_FAILURE() << field << ": no throw";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(metrics.Snapshot().ToText(), "") << field;
  };
  for (const auto& [field, config] : cases) {
    expect_refused(field, [&] { CalibrateProfile(profile, config); });
    for (const ProfileRow& row : profile.rows) {
      EXPECT_EQ(row.effective_speedup, -1.0) << field;
    }
    expect_refused(field, [&] {
      CalibrateEffectiveSpeedup(profile, profile.rows[0], service, config);
    });
  }
}

// A row whose observed mean cannot be calibrated fails the whole profile
// before any row is simulated.
TEST(CalibrationTest, CalibrateProfileChecksEveryRowFirst) {
  WorkloadProfile profile = SyntheticProfile(1.3);
  profile.rows.push_back(profile.rows[0]);
  profile.rows.back().observed_mean_response_time = 0.0;
  obs::MetricsRegistry metrics;
  {
    obs::ObsSession session(&metrics, nullptr);
    EXPECT_THROW(CalibrateProfile(profile, CalibrationConfig{}),
                 std::invalid_argument);
  }
  EXPECT_EQ(metrics.Snapshot().ToText(), "");
}

// Common random numbers make a row's simulated response time monotone in
// the sprint speedup, which is what lets Equation 2's search bisect. Each
// row of a profiled grid, Pareto rows included, replays its calibration
// draws across the whole search range, and its mean response time must
// never rise.
TEST(CalibrationTest, ResponseTimeFallsWithSpeedupAcrossGrid) {
  ProfilerConfig profiler;
  profiler.sample_grid_points = 40;
  profiler.queries_per_run = 2000;
  profiler.warmup_queries = 200;
  SprintPolicy platform;
  platform.mechanism = MechanismId::kDvfs;
  const WorkloadProfile profile = ProfileWorkload(
      QueryMix::Single(WorkloadId::kJacobi), platform, profiler);
  const EmpiricalDistribution service(profile.service_time_samples);
  const CalibrationConfig config;
  const double top =
      std::max(1.0, profile.MarginalSpeedup()) * config.max_speedup_factor;
  constexpr int kSpeedups = 16;

  size_t pareto_rows = 0;
  for (size_t r = 0; r < profile.rows.size(); ++r) {
    const ModelInput input = ModelInput::FromRow(profile.rows[r]);
    pareto_rows += input.arrival_kind == DistributionKind::kPareto;
    auto sim_config = [&](double speedup, size_t rep) {
      return BuildSimConfig(profile, input, service, speedup,
                            config.sim_queries, config.sim_warmup,
                            DeriveSeed(config.seed, rep));
    };
    std::vector<SimDraws> draws;
    for (size_t rep = 0; rep < config.sim_replications; ++rep) {
      draws.push_back(DrawSimQueries(sim_config(1.0, rep)));
    }
    double previous = std::numeric_limits<double>::infinity();
    for (int k = 0; k < kSpeedups; ++k) {
      const double speedup = config.min_speedup + (top - config.min_speedup) *
                                                      k / (kSpeedups - 1);
      StreamingStats rt;
      for (size_t rep = 0; rep < draws.size(); ++rep) {
        rt.Add(SimulateQueue(sim_config(speedup, rep), draws[rep])
                   .mean_response_time);
      }
      ASSERT_LE(rt.mean(), previous) << "row " << r << " speedup " << speedup;
      previous = rt.mean();
    }
  }
  EXPECT_GT(pareto_rows, 0u);
}

TEST(ModelTest, BuildTrainingDatasetTargets) {
  WorkloadProfile profile = SyntheticProfile(1.3);
  profile.rows[0].effective_speedup = 1.2;
  const Dataset hybrid_data =
      BuildTrainingDataset({&profile}, /*target_effective_rate=*/true);
  ASSERT_EQ(hybrid_data.NumRows(), 1u);
  EXPECT_NEAR(hybrid_data.Target(0), 1.2 * 60.0, 1e-9);  // mu_e in qph

  const Dataset ann_data =
      BuildTrainingDataset({&profile}, /*target_effective_rate=*/false);
  EXPECT_DOUBLE_EQ(ann_data.Target(0),
                   profile.rows[0].observed_mean_response_time);
}

TEST(ModelTest, NoMlPredictsSimulatorAtMarginalRate) {
  const WorkloadProfile profile = SyntheticProfile(1.45);
  const NoMlModel model;
  const double predicted = model.PredictResponseTime(
      profile, ModelInput::FromRow(profile.rows[0]));
  // The synthetic observation was generated at the marginal speedup with
  // the same seeds, so No-ML must nail it.
  EXPECT_NEAR(predicted, profile.rows[0].observed_mean_response_time,
              0.02 * profile.rows[0].observed_mean_response_time);
}

TEST(ModelTest, HybridUsesForestRate) {
  WorkloadProfile profile = SyntheticProfile(1.2);
  // Clone the row across several policy settings so the forest has data.
  for (int i = 1; i < 12; ++i) {
    ProfileRow row = profile.rows[0];
    row.timeout_seconds = 30.0 + 10.0 * i;
    profile.rows.push_back(row);
  }
  CalibrationConfig calibration;
  calibration.sim_queries = 4000;
  calibration.sim_warmup = 400;
  CalibrateProfile(profile, calibration);
  const HybridModel model = HybridModel::Train({&profile});
  const double mu_e =
      model.PredictEffectiveRateQph(profile, ModelInput::FromRow(
                                                 profile.rows[0]));
  // Calibrated speedups hover near 1.2; the forest output must be in the
  // plausible rate band.
  EXPECT_GT(mu_e, 0.9 * 60.0);
  EXPECT_LT(mu_e, 1.45 * 60.0 * 1.2);
  const double rt = model.PredictResponseTime(
      profile, ModelInput::FromRow(profile.rows[0]));
  EXPECT_GT(rt, 0.0);
}

TEST(ModelTest, AnnTrainsAndPredictsPositive) {
  WorkloadProfile profile = SyntheticProfile(1.3);
  for (int i = 1; i < 30; ++i) {
    ProfileRow row = profile.rows[0];
    row.timeout_seconds = 20.0 + 5.0 * i;
    row.observed_mean_response_time *= 1.0 + 0.01 * i;
    profile.rows.push_back(row);
  }
  NeuralNetConfig net;
  net.hidden_layers = {16, 16};
  net.epochs = 200;
  const AnnDirectModel model = AnnDirectModel::Train({&profile}, net);
  const double rt = model.PredictResponseTime(
      profile, ModelInput::FromRow(profile.rows[0]));
  EXPECT_GT(rt, 0.0);
  EXPECT_EQ(model.name(), "ANN");
}

// The models run with exactly the simulation settings a saved model may
// carry: what the reader refuses, Train and the No-ML constructor refuse.
TEST(ModelTest, SimSettingsTheReaderRejectsAreRejected) {
  WorkloadProfile profile = SyntheticProfile(1.3);
  profile.rows[0].effective_speedup = 1.2;
  auto reader_accepts = [](const PredictionSimConfig& sim) {
    persist::Writer w;
    SerializePredictionSimConfig(sim, w);
    persist::Reader r(w.bytes());
    try {
      DeserializePredictionSimConfig(r);
      return true;
    } catch (const persist::PersistError&) {
      return false;
    }
  };
  const PredictionSimConfig rejected[] = {
      {0, 0, 2, 97}, {2000, 200, 0, 97}, {2000, 2000, 2, 97}};
  for (const PredictionSimConfig& sim : rejected) {
    EXPECT_FALSE(reader_accepts(sim));
    EXPECT_THROW(NoMlModel{sim}, std::invalid_argument);
    EXPECT_THROW(HybridModel::Train({&profile}, {}, sim),
                 std::invalid_argument);
  }
  const PredictionSimConfig smallest{1, 0, 1, 97};
  EXPECT_TRUE(reader_accepts(smallest));
  EXPECT_NO_THROW(NoMlModel{smallest});
  EXPECT_NO_THROW(HybridModel::Train({&profile}, {}, smallest));
}

TEST(ModelTest, TrainOnEmptyThrows) {
  EXPECT_THROW(HybridModel::Train({}), std::invalid_argument);
  EXPECT_THROW(AnnDirectModel::Train({}), std::invalid_argument);
}

// ----------------------------------------------------------- evaluation

TEST(EvaluationTest, SplitPreservesRowCount) {
  WorkloadProfile profile = SyntheticProfile(1.3);
  for (int i = 1; i < 10; ++i) {
    profile.rows.push_back(profile.rows[0]);
  }
  Rng rng(3);
  const ProfileSplit split = SplitProfileRows(profile, 0.8, rng);
  EXPECT_EQ(split.train.rows.size() + split.test_rows.size(),
            profile.rows.size());
  EXPECT_EQ(split.train.rows.size(), 8u);
  // Shared profile metadata is copied through.
  EXPECT_DOUBLE_EQ(split.train.service_rate_per_second,
                   profile.service_rate_per_second);
}

TEST(EvaluationTest, ErrorsAgainstPerfectModelAreZero) {
  // A model that replays the observation exactly.
  class Oracle final : public PerformanceModel {
   public:
    explicit Oracle(double value) : value_(value) {}
    std::string name() const override { return "Oracle"; }
    double PredictResponseTime(const WorkloadProfile&,
                               const ModelInput&) const override {
      return value_;
    }

   private:
    double value_;
  };
  WorkloadProfile profile = SyntheticProfile(1.3);
  const auto cases = MakeCases(profile, profile.rows);
  const Oracle oracle(profile.rows[0].observed_mean_response_time);
  const auto errors = EvaluateErrors(oracle, cases);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NEAR(errors[0], 0.0, 1e-12);
  EXPECT_NEAR(MedianError(oracle, cases), 0.0, 1e-12);
}

}  // namespace
}  // namespace msprint
