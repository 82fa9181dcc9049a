// Determinism guarantees of the parallel execution layer: every parallel
// stage must produce bit-identical results for any pool size (the
// "same seed => same output" invariant the multi-chain explorer, parallel
// forest and replicated simulator are built on), and the hardened
// ThreadPool must propagate task exceptions and compose nested ParallelFor
// calls without deadlocking.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/thread_pool.h"
#include "src/core/effective_rate.h"
#include "src/core/models.h"
#include "src/explore/explorer.h"
#include "src/fault/fault.h"
#include "src/ml/random_forest.h"
#include "src/obs/attrib.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/recorder.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/online/advisor.h"
#include "src/persist/persist.h"
#include "src/profiler/profile_io.h"
#include "src/profiler/profiler.h"
#include "src/robust/storm.h"
#include "src/sim/queue_simulator.h"
#include "src/testbed/testbed.h"

namespace msprint {
namespace {

std::vector<size_t> PoolSizesUnderTest() {
  const size_t hardware =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  return {1, 2, hardware};
}

// ----------------------------------------------------------------- forest

Dataset NoisyStepData(int rows, uint64_t seed) {
  Dataset data({"x0", "anchor"});
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    const double x0 = rng.NextDouble() * 10.0;
    const double anchor = rng.NextDouble() * 4.0;
    const double y =
        (x0 < 5.0 ? 10.0 : 25.0) + 2.0 * anchor + rng.NextGaussian();
    data.Add({x0, anchor}, y);
  }
  return data;
}

TEST(DeterminismTest, ForestIdenticalForAnyPoolSize) {
  const Dataset train = NoisyStepData(400, 21);
  RandomForestConfig config;
  config.num_trees = 16;
  config.anchor_feature = 1;
  config.seed = 77;

  const std::vector<std::vector<double>> probes = {
      {1.0, 0.5}, {4.9, 3.0}, {5.1, 1.0}, {9.0, 2.5}};

  ThreadPool serial(1);
  const RandomForest reference = RandomForest::Fit(train, config, &serial);
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    const RandomForest forest = RandomForest::Fit(train, config, &pool);
    ASSERT_EQ(forest.TreeCount(), reference.TreeCount());
    for (const auto& probe : probes) {
      const auto expected = reference.PredictPerTree(probe);
      const auto got = forest.PredictPerTree(probe);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t t = 0; t < got.size(); ++t) {
        EXPECT_EQ(got[t], expected[t])
            << "tree " << t << " diverged at pool size " << pool_size;
      }
    }
  }
}

// --------------------------------------------------------------- explorer

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

WorkloadProfile DummyProfile() {
  WorkloadProfile profile;
  profile.service_rate_per_second = 1.0 / 60.0;
  profile.marginal_rate_per_second = 1.4 / 60.0;
  Rng rng(5);
  const LognormalDistribution jitter(60.0, 0.2);
  for (int i = 0; i < 200; ++i) {
    profile.service_time_samples.push_back(jitter.Sample(rng));
  }
  return profile;
}

bool SameExploreResult(const ExploreResult& a, const ExploreResult& b) {
  if (a.best_timeout_seconds != b.best_timeout_seconds ||
      a.best_response_time != b.best_response_time ||
      a.trajectory.size() != b.trajectory.size()) {
    return false;
  }
  for (size_t i = 0; i < a.trajectory.size(); ++i) {
    if (a.trajectory[i].timeout_seconds != b.trajectory[i].timeout_seconds ||
        a.trajectory[i].predicted_response_time !=
            b.trajectory[i].predicted_response_time ||
        a.trajectory[i].accepted != b.trajectory[i].accepted) {
      return false;
    }
  }
  return true;
}

TEST(DeterminismTest, MultiChainExploreIdenticalForAnyPoolSize) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.max_iterations = 200;
  config.num_chains = 4;

  ThreadPool serial(1);
  const ExploreResult reference =
      ExploreTimeout(model, profile, ModelInput{}, config, &serial);
  // 4 chains x 50 iterations.
  EXPECT_EQ(reference.trajectory.size(), 200u);
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    const ExploreResult result =
        ExploreTimeout(model, profile, ModelInput{}, config, &pool);
    EXPECT_TRUE(SameExploreResult(reference, result))
        << "explore diverged at pool size " << pool_size;
  }
}

TEST(DeterminismTest, SingleChainUnchangedByChainMachinery) {
  // num_chains=1 must follow the exact single-chain trajectory regardless
  // of the pool handed in: the serial seed behaviour is the contract.
  const ConvexModel model(90.0);
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.max_iterations = 150;

  ThreadPool serial(1);
  const ExploreResult reference =
      ExploreTimeout(model, profile, ModelInput{}, config, &serial);
  ThreadPool pool(4);
  const ExploreResult result =
      ExploreTimeout(model, profile, ModelInput{}, config, &pool);
  EXPECT_TRUE(SameExploreResult(reference, result));
}

TEST(DeterminismTest, MultiChainFindsConvexMinimum) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();
  ExploreConfig config;
  config.max_iterations = 400;
  config.num_chains = 4;
  const ExploreResult result =
      ExploreTimeout(model, profile, ModelInput{}, config);
  EXPECT_NEAR(result.best_timeout_seconds, 140.0, 10.0);
  EXPECT_NEAR(result.best_response_time, 100.0, 1.0);
}

// -------------------------------------------------------- fault injection

TEST(DeterminismTest, FaultStormReplaysByteIdentically) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.timeout_seconds = 40.0;
  config.utilization = 0.6;
  config.num_queries = 1000;
  config.warmup_queries = 100;
  config.seed = 77;
  config.faults.toggle_failure_probability = 0.2;
  config.faults.breaker_trips_per_hour = 4.0;
  config.faults.outlier_probability = 0.05;
  config.faults.flash_crowds_per_hour = 1.0;

  // The testbed is a serial discrete-event loop and the fault plan is a
  // pure function of (config, seed), so two runs — under any
  // MSPRINT_THREADS setting — must agree byte for byte.
  const RunTrace a = Testbed::Run(config);
  const RunTrace b = Testbed::Run(config);
  ASSERT_FALSE(a.fault_trace.empty());
  EXPECT_EQ(FormatFaultTrace(a.fault_trace), FormatFaultTrace(b.fault_trace));
  EXPECT_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.total_sprint_seconds, b.total_sprint_seconds);
}

TEST(DeterminismTest, StormReportByteIdenticalForAnyPoolSize) {
  // The A/B overload bench is the newest export surface; like every
  // other artifact it must render byte-identically no matter what
  // MSPRINT_THREADS says — both arms are serial event loops and the
  // retry jitter is a pure function of (seed, request, attempt).
  std::string first;
  for (const size_t pool_size : {size_t{1}, size_t{4}}) {
    ThreadPool pool(pool_size);
    const robust::StormReport report = robust::RunStormAB(robust::StormConfig{});
    const std::string text = robust::FormatStormReport(report);
    if (first.empty()) {
      first = text;
    } else {
      EXPECT_EQ(text, first);
    }
  }
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first.find("goodput_ratio"), std::string::npos);
}

// ----------------------------------------------------------------- advisor

TEST(DeterminismTest, AdvisorRecommendationsIdenticalForAnyPoolSize) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();

  // Drives one advisor through a load shift and a watchdog-forced ladder
  // descent (observations 4x the prediction), collecting every published
  // recommendation. Multi-chain re-planning runs on the given pool; the
  // stream must be bit-identical for any pool size.
  auto run = [&](ThreadPool* pool) {
    AdvisorConfig config;
    config.rate_window_seconds = 400.0;
    config.explore.max_iterations = 160;
    config.explore.num_chains = 4;
    config.explore.seed = 5;
    config.pool = pool;
    config.fallback_sim = {600, 60, 1, 97};
    config.health_window_count = 12;
    config.health_min_observations = 6;
    OnlineAdvisor advisor(model, profile, config);
    std::vector<Recommendation> recommendations;
    double t = 0.0;
    for (int i = 0; i < 120; ++i) {
      t += i < 60 ? 20.0 : 5.0;  // load shift halfway through
      advisor.OnArrival(t);
      const auto rec = advisor.Recommend(t);
      if (rec.has_value()) {
        recommendations.push_back(*rec);
        advisor.OnObservedResponseTime(
            t, 4.0 * rec->predicted_response_time);
      }
    }
    return recommendations;
  };

  ThreadPool serial(1);
  const std::vector<Recommendation> reference = run(&serial);
  ASSERT_FALSE(reference.empty());
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    const std::vector<Recommendation> result = run(&pool);
    ASSERT_EQ(result.size(), reference.size())
        << "advisor diverged at pool size " << pool_size;
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_EQ(result[i].timeout_seconds, reference[i].timeout_seconds);
      EXPECT_EQ(result[i].predicted_response_time,
                reference[i].predicted_response_time);
      EXPECT_EQ(result[i].revision, reference[i].revision);
      EXPECT_EQ(result[i].rung, reference[i].rung);
    }
  }
}

// ------------------------------------------------------- observability
//
// The PR-4 invariant: telemetry inherits determinism. A seeded drive with
// an attached MetricsRegistry + FlightRecorder must export byte-identical
// snapshots and event streams for any pool size — stable counters are
// order-independent sums and recorder events only come from serial paths.

TEST(DeterminismTest, ObsExportsByteIdenticalForAnyPoolSize) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();

  // The advisor drive from AdvisorRecommendationsIdenticalForAnyPoolSize,
  // now with full observability attached: multi-chain exploration fans out
  // on the pool while counters accumulate from racing workers.
  auto run = [&](ThreadPool* pool) {
    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder;
    obs::ObsSession session(&metrics, &recorder);

    AdvisorConfig config;
    config.rate_window_seconds = 400.0;
    config.explore.max_iterations = 160;
    config.explore.num_chains = 4;
    config.explore.seed = 5;
    config.pool = pool;
    config.fallback_sim = {600, 60, 1, 97};
    config.health_window_count = 12;
    config.health_min_observations = 6;
    OnlineAdvisor advisor(model, profile, config);
    double t = 0.0;
    for (int i = 0; i < 120; ++i) {
      t += i < 60 ? 20.0 : 5.0;
      advisor.OnArrival(t);
      const auto rec = advisor.Recommend(t);
      if (rec.has_value()) {
        advisor.OnObservedResponseTime(t, 4.0 * rec->predicted_response_time);
      }
    }

    struct Exports {
      std::string text;
      std::string json;
      std::string jsonl;
      std::string chrome;
    };
    const obs::MetricsSnapshot snapshot = metrics.Snapshot();
    const std::vector<obs::Event> events = recorder.Events();
    return Exports{snapshot.ToText(), snapshot.ToJson(),
                   obs::EventsToJsonl(events),
                   obs::EventsToChromeTrace(events)};
  };

  ThreadPool serial(1);
  const auto reference = run(&serial);
  ASSERT_NE(reference.text.find("counter explore/"), std::string::npos);
  ASSERT_NE(reference.jsonl.find("replan"), std::string::npos);
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    const auto result = run(&pool);
    EXPECT_EQ(result.text, reference.text)
        << "metrics text diverged at pool size " << pool_size;
    EXPECT_EQ(result.json, reference.json)
        << "metrics json diverged at pool size " << pool_size;
    EXPECT_EQ(result.jsonl, reference.jsonl)
        << "event jsonl diverged at pool size " << pool_size;
    EXPECT_EQ(result.chrome, reference.chrome)
        << "chrome trace diverged at pool size " << pool_size;
  }
}

TEST(DeterminismTest, SpanAttributionByteIdenticalForAnyPoolSize) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();

  // The explain pipeline: drive an advisor (multi-chain exploration fans
  // out on the pool), simulate under its recommendation with spans going
  // to an explicit sink, and render the attribution report. Spans carry
  // sim-time stamps only, so the full report — histograms, critical path,
  // top-K span trees — must be byte-identical for any pool size.
  auto run = [&](ThreadPool* pool) {
    AdvisorConfig config;
    config.rate_window_seconds = 400.0;
    config.explore.max_iterations = 160;
    config.explore.num_chains = 4;
    config.explore.seed = 5;
    config.pool = pool;
    config.fallback_sim = {600, 60, 1, 97};
    OnlineAdvisor advisor(model, profile, config);
    double t = 0.0;
    for (int i = 0; i < 40; ++i) {
      t += 20.0;
      advisor.OnArrival(t);
      advisor.Recommend(t);
    }
    const auto rec = advisor.Recommend(t);

    obs::SpanCollector collector;
    const EmpiricalDistribution service(profile.service_time_samples);
    SimConfig sim;
    sim.arrival_rate_per_second = 0.01;
    sim.service = &service;
    sim.sprint_speedup = 1.4;
    sim.timeout_seconds = rec.has_value() ? rec->timeout_seconds : 60.0;
    sim.num_queries = 800;
    sim.warmup_queries = 80;
    sim.seed = 9;
    sim.span_sink = &collector;
    SimulateQueue(sim);
    return obs::FormatAttribution(
        obs::Attribute(collector.TakeSpans(), obs::AttributionOptions{}));
  };

  ThreadPool serial(1);
  const std::string reference = run(&serial);
  ASSERT_NE(reference.find("counter span/queries"), std::string::npos);
  ASSERT_NE(reference.find("counter span/identity-violations 0"),
            std::string::npos);
  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    EXPECT_EQ(run(&pool), reference)
        << "span attribution diverged at pool size " << pool_size;
  }
}

TEST(DeterminismTest, FaultStormSpanExportsByteIdentical) {
  // Two identical fault-storm testbed runs with span recording attached:
  // the attribution report and the nested-span chrome trace must agree
  // byte for byte, and every recorded query must satisfy the additive
  // identity exactly.
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.timeout_seconds = 40.0;
  config.utilization = 0.6;
  config.num_queries = 1000;
  config.warmup_queries = 100;
  config.seed = 77;
  config.faults.toggle_failure_probability = 0.2;
  config.faults.breaker_trips_per_hour = 4.0;
  config.faults.outlier_probability = 0.05;
  config.faults.flash_crowds_per_hour = 1.0;

  auto run = [&] {
    obs::SpanCollector collector;
    obs::ObsSession session(nullptr, nullptr, &collector);
    Testbed::Run(config);
    const std::vector<obs::QuerySpan> spans = collector.TakeSpans();
    size_t violations = 0;
    for (const obs::QuerySpan& span : spans) {
      if (!span.IdentityHolds()) ++violations;
    }
    EXPECT_EQ(violations, 0u);
    return std::make_pair(
        obs::FormatAttribution(
            obs::Attribute(spans, obs::AttributionOptions{})),
        obs::SpansToChromeTrace(spans));
  };
  const auto a = run();
  const auto b = run();
  ASSERT_NE(a.first.find("counter span/queries 900"), std::string::npos);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(DeterminismTest, FaultStormObsSnapshotByteIdentical) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.timeout_seconds = 40.0;
  config.utilization = 0.6;
  config.num_queries = 1000;
  config.warmup_queries = 100;
  config.seed = 77;
  config.faults.toggle_failure_probability = 0.2;
  config.faults.breaker_trips_per_hour = 4.0;
  config.faults.outlier_probability = 0.05;
  config.faults.flash_crowds_per_hour = 1.0;

  auto run = [&] {
    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder;
    obs::ObsSession session(&metrics, &recorder);
    Testbed::Run(config);
    return std::make_pair(metrics.Snapshot().ToText(),
                          recorder.FormatTail());
  };
  const auto a = run();
  const auto b = run();
  ASSERT_NE(a.first.find("counter fault/breaker_trips"), std::string::npos);
  ASSERT_NE(a.second.find("breaker-trip"), std::string::npos);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

// ------------------------------------------------------- persistence
//
// Checkpoint/restore rides on the same invariant as the pool-size tests:
// restored artifacts must be bit-identical, so a warm-restarted run is
// indistinguishable from one that never stopped.

WorkloadProfile CalibratedProfile() {
  WorkloadProfile profile = DummyProfile();
  for (int i = 0; i < 24; ++i) {
    ProfileRow row;
    row.utilization = 0.3 + 0.02 * i;
    row.arrival_kind = DistributionKind::kExponential;
    row.timeout_seconds = 40.0 + 10.0 * i;
    row.refill_seconds = 3600.0;
    row.budget_fraction = 0.2;
    row.observed_mean_response_time = 120.0 + 2.0 * i;
    row.observed_median_response_time = 100.0 + 2.0 * i;
    row.fraction_sprinted = 0.4;
    row.fraction_timed_out = 0.2;
    row.run_virtual_seconds = 50000.0;
    row.effective_speedup = 1.1 + 0.01 * i;
    profile.rows.push_back(row);
  }
  return profile;
}

// The batch entry point the benches and perfbench call: a trained hybrid
// model's predictions fanned out over a pool equal serial
// PredictResponseTime bit for bit, for any pool size.
TEST(DeterminismTest, PredictBatchMatchesSerialPredict) {
  const WorkloadProfile profile = CalibratedProfile();
  const HybridModel model = HybridModel::Train(
      {&profile}, {}, PredictionSimConfig{2000, 200, 2, 97});
  std::vector<ModelInput> inputs;
  for (int i = 0; i < 12; ++i) {
    ModelInput input;
    input.utilization = 0.35 + 0.05 * i;
    input.arrival_kind = i % 3 == 0 ? DistributionKind::kPareto
                                    : DistributionKind::kExponential;
    input.timeout_seconds = 40.0 + 15.0 * i;
    input.refill_seconds = 3600.0;
    input.budget_fraction = 0.1 + 0.05 * i;
    inputs.push_back(input);
  }
  std::vector<double> serial;
  for (const ModelInput& input : inputs) {
    serial.push_back(model.PredictResponseTime(profile, input));
  }
  for (const size_t pool_size : {size_t{1}, size_t{2}, size_t{4}}) {
    ThreadPool pool(pool_size);
    const std::vector<double> batched =
        model.PredictResponseTimeBatch(profile, inputs, &pool);
    ASSERT_EQ(batched.size(), inputs.size());
    for (size_t i = 0; i < inputs.size(); ++i) {
      EXPECT_EQ(batched[i], serial[i])
          << "input " << i << " diverged at pool size " << pool_size;
    }
  }
}

TEST(DeterminismTest, SerializedForestPredictsByteIdentically) {
  const Dataset train = NoisyStepData(400, 21);
  RandomForestConfig config;
  config.num_trees = 16;
  config.anchor_feature = 1;
  config.seed = 77;
  const RandomForest forest = RandomForest::Fit(train, config);

  persist::Writer w;
  forest.Serialize(w);
  persist::Reader r(w.bytes());
  const RandomForest restored =
      RandomForest::Deserialize(r, train.feature_names().size());
  r.ExpectEnd();

  ASSERT_EQ(restored.TreeCount(), forest.TreeCount());
  for (const auto& probe : std::vector<std::vector<double>>{
           {1.0, 0.5}, {4.9, 3.0}, {5.1, 1.0}, {9.0, 2.5}}) {
    const auto expected = forest.PredictPerTree(probe);
    const auto got = restored.PredictPerTree(probe);
    ASSERT_EQ(got.size(), expected.size());
    for (size_t t = 0; t < got.size(); ++t) {
      EXPECT_EQ(got[t], expected[t]) << "tree " << t;
    }
  }
}

TEST(DeterminismTest, SerializedHybridAndAnnPredictByteIdentically) {
  const WorkloadProfile profile = CalibratedProfile();

  const HybridModel hybrid = HybridModel::Train({&profile});
  persist::Writer hybrid_w;
  hybrid.Serialize(hybrid_w);
  persist::Reader hybrid_r(hybrid_w.bytes());
  const HybridModel hybrid2 = HybridModel::Deserialize(hybrid_r);
  hybrid_r.ExpectEnd();

  NeuralNetConfig net;
  net.hidden_layers = {8, 8};
  net.epochs = 40;
  const AnnDirectModel ann = AnnDirectModel::Train({&profile}, net);
  persist::Writer ann_w;
  ann.Serialize(ann_w);
  persist::Reader ann_r(ann_w.bytes());
  const AnnDirectModel ann2 = AnnDirectModel::Deserialize(ann_r);
  ann_r.ExpectEnd();

  for (const ProfileRow& row : profile.rows) {
    const ModelInput input = ModelInput::FromRow(row);
    EXPECT_EQ(hybrid2.PredictEffectiveRateQph(profile, input),
              hybrid.PredictEffectiveRateQph(profile, input));
    EXPECT_EQ(hybrid2.PredictResponseTime(profile, input),
              hybrid.PredictResponseTime(profile, input));
    EXPECT_EQ(ann2.PredictResponseTime(profile, input),
              ann.PredictResponseTime(profile, input));
  }
}

TEST(DeterminismTest, WarmRestartedAdvisorMatchesUninterruptedRun) {
  const ConvexModel model(140.0);
  const WorkloadProfile profile = DummyProfile();

  // One deterministic drive step: pure function of (advisor state, i).
  auto step = [](OnlineAdvisor& advisor, int i, double& t,
                 std::vector<Recommendation>& out) {
    t += i < 60 ? 20.0 : 5.0;  // load shift halfway through
    advisor.OnArrival(t);
    const auto rec = advisor.Recommend(t);
    if (rec.has_value()) {
      out.push_back(*rec);
      advisor.OnObservedResponseTime(t, 4.0 * rec->predicted_response_time);
    }
  };

  for (size_t pool_size : PoolSizesUnderTest()) {
    ThreadPool pool(pool_size);
    AdvisorConfig config;
    config.rate_window_seconds = 400.0;
    config.explore.max_iterations = 160;
    config.explore.num_chains = 4;
    config.explore.seed = 5;
    config.pool = &pool;
    config.fallback_sim = {600, 60, 1, 97};
    config.health_window_count = 12;
    config.health_min_observations = 6;

    // The uninterrupted reference run.
    OnlineAdvisor uninterrupted(model, profile, config);
    std::vector<Recommendation> expected;
    double t = 0.0;
    for (int i = 0; i < 120; ++i) {
      step(uninterrupted, i, t, expected);
    }
    ASSERT_FALSE(expected.empty());

    // The same run interrupted at step 60: snapshot, restore into a fresh
    // advisor, continue. The combined stream must match bit for bit —
    // including the post-restore rung/backoff behaviour.
    OnlineAdvisor before(model, profile, config);
    std::vector<Recommendation> got;
    t = 0.0;
    for (int i = 0; i < 60; ++i) {
      step(before, i, t, got);
    }
    persist::Writer snapshot;
    before.SaveState(snapshot);

    OnlineAdvisor resumed(model, profile, config);
    persist::Reader r(snapshot.bytes());
    resumed.RestoreState(r);
    for (int i = 60; i < 120; ++i) {
      step(resumed, i, t, got);
    }

    ASSERT_EQ(got.size(), expected.size())
        << "restored advisor diverged at pool size " << pool_size;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].timeout_seconds, expected[i].timeout_seconds);
      EXPECT_EQ(got[i].predicted_response_time,
                expected[i].predicted_response_time);
      EXPECT_EQ(got[i].at_utilization, expected[i].at_utilization);
      EXPECT_EQ(got[i].revision, expected[i].revision);
      EXPECT_EQ(got[i].rung, expected[i].rung);
    }
  }
}

// A model whose every prediction throws: the advisor must demote and
// back off, and that in-flight backoff must survive a warm restart.
class OfflineModel final : public PerformanceModel {
 public:
  std::string name() const override { return "Offline"; }
  double PredictResponseTime(const WorkloadProfile&,
                             const ModelInput&) const override {
    throw std::runtime_error("model backend offline");
  }
};

TEST(DeterminismTest, WarmRestartMidBackoffRetriesAtSameSimTime) {
  const OfflineModel model;
  const WorkloadProfile profile = DummyProfile();
  AdvisorConfig config;
  config.rate_window_seconds = 400.0;
  config.explore.max_iterations = 120;
  config.explore.seed = 5;
  config.fallback_sim = {600, 60, 1, 97};
  config.replan_max_attempts = 1;
  config.replan_backoff_seconds = 30.0;

  OnlineAdvisor advisor(model, profile, config);
  double t = 0.0;
  for (int i = 0; i < 20; ++i) {
    t += 20.0;
    advisor.OnArrival(t);
  }
  // The dead model fails the plan: one demotion, backoff armed.
  ASSERT_FALSE(advisor.Recommend(t).has_value());
  ASSERT_EQ(advisor.rung(), AdvisorRung::kSimulator);
  const double deadline = advisor.backoff_until();
  ASSERT_EQ(deadline, t + 30.0);

  // Snapshot mid-backoff and restore into a fresh advisor.
  persist::Writer snapshot;
  advisor.SaveState(snapshot);
  OnlineAdvisor resumed(model, profile, config);
  persist::Reader r(snapshot.bytes());
  resumed.RestoreState(r);
  EXPECT_EQ(resumed.backoff_until(), deadline);
  EXPECT_EQ(resumed.rung(), AdvisorRung::kSimulator);
  EXPECT_EQ(resumed.replan_failure_count(), advisor.replan_failure_count());

  // Both advisors keep honouring the same deadline at the same sim-time:
  // strictly-before polls wait, the poll at exactly `deadline` retries on
  // the fallback simulator, and the recommendations match bit for bit.
  EXPECT_FALSE(advisor.Recommend(deadline - 5.0).has_value());
  EXPECT_FALSE(resumed.Recommend(deadline - 5.0).has_value());
  const auto original = advisor.Recommend(deadline);
  const auto restored = resumed.Recommend(deadline);
  ASSERT_TRUE(original.has_value());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->rung, original->rung);
  EXPECT_EQ(restored->timeout_seconds, original->timeout_seconds);
  EXPECT_EQ(restored->predicted_response_time,
            original->predicted_response_time);
  EXPECT_EQ(restored->revision, original->revision);
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolHardeningTest, ParallelForPropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [](size_t i) {
                         if (i == 13) {
                           throw std::runtime_error("boom");
                         }
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed run.
  std::atomic<int> counter{0};
  pool.ParallelFor(32, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPoolHardeningTest, SubmitWaitPropagatesException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::logic_error("task failed"); });
  EXPECT_THROW(pool.Wait(), std::logic_error);
  // The error is consumed: a later Wait with healthy tasks succeeds.
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolHardeningTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(8, [&](size_t) {
    // Nested call on the same pool: must run inline on the worker instead
    // of waiting on queue slots the outer loop is occupying.
    pool.ParallelFor(16, [&](size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 8 * 16);
}

TEST(ThreadPoolHardeningTest, NestedInCallersChunkRunsOnCallingThread) {
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> caller_started{false};
  std::vector<std::thread::id> nested_ids(16);
  // Three chunks and two workers: a worker holding a chunk waits for the
  // caller to start one, so the caller always runs at least one, and the
  // workers are idle by the time its nested loop starts.
  pool.ParallelFor(
      3,
      [&](size_t) {
        if (std::this_thread::get_id() != caller) {
          const auto deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (!caller_started.load() &&
                 std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
          }
          return;
        }
        if (caller_started.exchange(true)) {
          return;
        }
        // Slow indices give an idle worker every chance to steal one, were
        // the nested loop queued instead of run inline.
        pool.ParallelFor(nested_ids.size(), [&](size_t i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          nested_ids[i] = std::this_thread::get_id();
        });
      },
      /*grain=*/1);
  ASSERT_TRUE(caller_started.load());
  for (const std::thread::id& id : nested_ids) {
    EXPECT_EQ(id, caller);
  }
}

// Pool A's tasks wait on pool B, whose workers call back into A while
// every participant of A is busy. A caller waits only for helpers that
// have started, so B's workers finish A's chunks themselves instead of
// waiting for an A worker to dequeue a helper. Predictions compose this
// way: a batch or multi-chain exploration on an explicit pool, run inside
// a task of the shared pool, fans replications back out on the shared
// pool.
TEST(ThreadPoolHardeningTest, CrossPoolNestingDoesNotDeadlock) {
  ThreadPool a(2);
  ThreadPool b(2);
  std::atomic<int> counter{0};
  a.ParallelFor(
      3,
      [&](size_t) {
        b.ParallelFor(
            4,
            [&](size_t) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
              a.ParallelFor(2, [&](size_t) { counter.fetch_add(1); });
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  EXPECT_EQ(counter.load(), 3 * 4 * 2);
}

TEST(ThreadPoolHardeningTest, ChunkedParallelForCoversAllIndicesOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(
      hits.size(), [&](size_t i) { hits[i].fetch_add(1); }, /*grain=*/7);
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(ThreadPoolHardeningTest, GlobalPoolIsShared) {
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1u);
  // Once the shared pool exists, resizing requests must be refused rather
  // than silently ignored.
  EXPECT_FALSE(ThreadPool::SetGlobalSize(a.size() + 1));
}

// ------------------------------------------------- event-engine goldens
//
// Byte-identical golden exports pin the discrete-event engines across the
// throughput overhaul (calendar queue, SoA records, batched RNG draws,
// batched span quantization): the files under tests/golden/ were generated
// from the pre-overhaul engines and any post-overhaul run must reproduce
// them byte for byte. The recipes deliberately sample only through
// libm-free distributions (uniform arrivals via NextDouble, empirical
// service via NextBounded), so the goldens do not depend on the host's
// libm rounding — every downstream value is pure IEEE arithmetic and
// prints identically everywhere.
//
// Regenerate (only when intentionally changing engine semantics) with
// MSPRINT_UPDATE_GOLDEN=1 ./build/tests/determinism_test

std::string GoldenDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendSimQueryLine(std::string* out, size_t i, const SimQuery& q) {
  *out += "query " + std::to_string(i) + " arrival=" +
          GoldenDouble(q.arrival) + " start=" + GoldenDouble(q.start) +
          " depart=" + GoldenDouble(q.depart) + " service=" +
          GoldenDouble(q.service_time) +
          " timed_out=" + (q.timed_out ? "1" : "0") +
          " sprinted=" + (q.sprinted ? "1" : "0") + " sprint_seconds=" +
          GoldenDouble(q.sprint_seconds) + "\n";
}

std::string EventEngineGoldenExport() {
  std::string out;

  // --- single-class queue simulator, spans + metrics attached.
  const EmpiricalDistribution service(
      {40.0, 55.5, 62.25, 70.0, 81.5, 95.25, 110.0, 133.75});
  SimConfig config;
  config.arrival_rate_per_second = 1.0 / 60.0;
  config.arrival_kind = DistributionKind::kUniform;
  config.service = &service;
  config.sprint_speedup = 1.5;
  config.timeout_seconds = 90.0;
  config.budget_capacity_seconds = 30.0;
  config.budget_refill_seconds = 150.0;
  config.slots = 2;
  config.num_queries = 400;
  config.warmup_queries = 40;
  config.seed = 20260808;

  {
    obs::MetricsRegistry metrics;
    obs::SpanCollector spans;
    obs::ObsSession session(&metrics, nullptr);
    config.span_sink = &spans;
    std::vector<SimQuery> trace;
    const SimResult result = SimulateQueue(config, &trace);

    out += "== sim/result\n";
    out += "mean_response_time " + GoldenDouble(result.mean_response_time) +
           "\n";
    out += "mean_queueing_delay " +
           GoldenDouble(result.mean_queueing_delay) + "\n";
    out += "fraction_sprinted " + GoldenDouble(result.fraction_sprinted) +
           "\n";
    out += "fraction_timed_out " + GoldenDouble(result.fraction_timed_out) +
           "\n";
    out += "total_sprint_seconds " +
           GoldenDouble(result.total_sprint_seconds) + "\n";
    out += "makespan " + GoldenDouble(result.makespan) + "\n";
    out += "median " + GoldenDouble(result.MedianResponseTime()) + "\n";
    out += "p99 " + GoldenDouble(result.PercentileResponseTime(0.99)) + "\n";
    out += "== sim/trace\n";
    for (size_t i = 0; i < std::min<size_t>(trace.size(), 24); ++i) {
      AppendSimQueryLine(&out, i, trace[i]);
    }
    out += "== sim/metrics\n" + metrics.Snapshot().ToText();
    obs::AttributionOptions options;
    options.top_k = 3;
    out += "== sim/attribution\n" +
           obs::FormatAttribution(obs::Attribute(spans.Spans(), options));
  }

  // --- two query classes (shared budget, per-class policies).
  const EmpiricalDistribution fast({8.0, 10.5, 12.25, 15.0});
  const EmpiricalDistribution slow({80.0, 95.5, 120.25, 150.0});
  SimConfig mc;
  mc.arrival_rate_per_second = 1.0 / 30.0;
  mc.arrival_kind = DistributionKind::kUniform;
  mc.classes = {{3.0, &fast, 20.0, 1.4}, {1.0, &slow, 140.0, 2.0}};
  mc.budget_capacity_seconds = 25.0;
  mc.budget_refill_seconds = 120.0;
  mc.slots = 2;
  mc.num_queries = 300;
  mc.warmup_queries = 30;
  mc.seed = 77;
  const SimResult mres = SimulateQueue(mc);
  out += "== multiclass/result\n";
  out += "mean_response_time " + GoldenDouble(mres.mean_response_time) + "\n";
  out += "total_sprint_seconds " + GoldenDouble(mres.total_sprint_seconds) +
         "\n";
  out += "makespan " + GoldenDouble(mres.makespan) + "\n";
  const char* const class_names[] = {"fast", "slow"};
  for (size_t c = 0; c < mres.per_class.size(); ++c) {
    const SimClassStats& klass = mres.per_class[c];
    out += std::string("class ") + class_names[c] + " completed=" +
           std::to_string(klass.completed) + " mean_response=" +
           GoldenDouble(klass.mean_response_time) + " mean_queueing=" +
           GoldenDouble(klass.mean_queueing_delay) + " fraction_sprinted=" +
           GoldenDouble(klass.fraction_sprinted) + "\n";
  }
  return out;
}

// Compares `got` with the committed tests/golden/<name>, or rewrites the
// file when MSPRINT_UPDATE_GOLDEN is set.
void ExpectMatchesGolden(const std::string& got, const std::string& name) {
  const std::string path =
      std::string(MSPRINT_SOURCE_DIR) + "/tests/golden/" + name;
  if (const char* update = std::getenv("MSPRINT_UPDATE_GOLDEN");
      update != nullptr && update[0] != '\0' && update[0] != '0') {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    out.close();
    GTEST_SKIP() << "golden rewritten: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " (generate with MSPRINT_UPDATE_GOLDEN=1)";
  std::string want((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  ASSERT_EQ(got.size(), want.size())
      << "export size diverged from the committed golden " << name;
  EXPECT_EQ(got, want);
}

TEST(DeterminismTest, EventEngineMatchesCommittedGolden) {
  ExpectMatchesGolden(EventEngineGoldenExport(), "event_engine.txt");
}

// ------------------------------------------------ model-pipeline golden
//
// Pins the modeling pipeline end to end: calibrated profiles (Equation
// 2's bisection over the simulator), hybrid and No-ML mean and p95
// predictions, and a timeout exploration. Unlike the event-engine recipes
// these profile real workloads, whose draws go through libm, so the file
// also pins the host libm's rounding (glibc on CI).

// A profile's SaveProfile text with the service-time sample lines elided:
// profiling wrote them, not calibration, and the profile's checksum line
// still covers every one of their bytes.
std::string ElideSampleLines(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  size_t skip = 0;
  while (std::getline(in, line)) {
    if (skip > 0) {
      --skip;
      continue;
    }
    out += line + "\n";
    if (line.rfind("samples ", 0) == 0) {
      skip = std::stoul(line.substr(8));
      out += "(" + std::to_string(skip) + " sample lines elided)\n";
    }
  }
  return out;
}

// An 8-row DVFS grid at 600 queries per run, calibrated.
WorkloadProfile GoldenCalibratedProfile(const QueryMix& mix) {
  ProfilerConfig profiler;
  profiler.sample_grid_points = 8;
  profiler.queries_per_run = 600;
  profiler.warmup_queries = 60;
  SprintPolicy platform;
  platform.mechanism = MechanismId::kDvfs;
  WorkloadProfile profile = ProfileWorkload(mix, platform, profiler);
  CalibrateProfile(profile, CalibrationConfig{});
  return profile;
}

std::string ModelPipelineGoldenExport() {
  std::string out;
  const std::pair<const char*, QueryMix> mixes[] = {
      {"Jacobi", QueryMix::Single(WorkloadId::kJacobi)},
      {"Jacobi+KNN",
       QueryMix::Uniform({WorkloadId::kJacobi, WorkloadId::kKnn}, 0.8)}};
  std::vector<WorkloadProfile> profiles;
  for (const auto& [name, mix] : mixes) {
    WorkloadProfile profile = GoldenCalibratedProfile(mix);
    std::ostringstream text;
    SaveProfile(profile, text);
    out += std::string("== calibrated profile ") + name + "\n" +
           ElideSampleLines(text.str());
    profiles.push_back(std::move(profile));
  }

  const HybridModel hybrid = HybridModel::Train({&profiles[0], &profiles[1]});
  const NoMlModel no_ml;
  out += "== predictions (mean, p95)\n";
  Rng rng(515);
  for (int i = 0; i < 16; ++i) {
    const WorkloadProfile& profile = profiles[i % 2];
    ModelInput input;
    input.utilization = 0.3 + 0.65 * rng.NextDouble();
    input.arrival_kind = rng.NextBounded(2) == 0
                             ? DistributionKind::kExponential
                             : DistributionKind::kPareto;
    input.timeout_seconds = 40.0 + 140.0 * rng.NextDouble();
    input.refill_seconds = 50.0 + 950.0 * rng.NextDouble();
    input.budget_fraction = 0.1 + 0.7 * rng.NextDouble();
    out += "input " + std::to_string(i) + " hybrid " +
           GoldenDouble(hybrid.PredictResponseTime(profile, input)) + " " +
           GoldenDouble(
               hybrid.PredictResponseTimePercentile(profile, input, 0.95)) +
           " no_ml " + GoldenDouble(no_ml.PredictResponseTime(profile, input)) +
           " " +
           GoldenDouble(
               no_ml.PredictResponseTimePercentile(profile, input, 0.95)) +
           "\n";
  }

  ModelInput base;
  base.utilization = 0.75;
  base.budget_fraction = 0.2;
  base.refill_seconds = 400.0;
  ExploreConfig explore;
  explore.max_iterations = 60;
  explore.seed = 7;
  const ExploreResult result =
      ExploreTimeout(hybrid, profiles[0], base, explore);
  out += "== explore (timeout, predicted, accepted)\n";
  for (size_t k = 0; k < result.trajectory.size(); ++k) {
    const ExploreStep& step = result.trajectory[k];
    out += "step " + std::to_string(k) + " " +
           GoldenDouble(step.timeout_seconds) + " " +
           GoldenDouble(step.predicted_response_time) + " " +
           (step.accepted ? "1" : "0") + "\n";
  }
  out += "best " + GoldenDouble(result.best_timeout_seconds) + " " +
         GoldenDouble(result.best_response_time) + "\n";
  return out;
}

TEST(DeterminismTest, ModelPipelineMatchesCommittedGolden) {
  ExpectMatchesGolden(ModelPipelineGoldenExport(), "model_pipeline.txt");
}

// A prediction's replications fan out on the shared pool when it is made
// at top level and run inline when it is nested in a pool task or in the
// calling thread's own chunk. Both merge in index order, so a prediction,
// a tail prediction and a single-chain exploration give the same bits in
// every setting, whatever pool runs the chains or the enclosing loop.
TEST(DeterminismTest, ReplicationFanOutMatchesInlineReplications) {
  const WorkloadProfile profile =
      GoldenCalibratedProfile(QueryMix::Single(WorkloadId::kJacobi));
  // Three replications split unevenly over any pool.
  const HybridModel hybrid =
      HybridModel::Train({&profile}, {}, PredictionSimConfig{4000, 400, 3, 97});
  ModelInput input;
  input.utilization = 0.7;
  input.timeout_seconds = 50.0;
  input.budget_fraction = 0.3;
  ExploreConfig explore;
  explore.max_iterations = 40;
  explore.seed = 3;

  struct Outputs {
    double mean = 0.0;
    double p99 = 0.0;
    ExploreResult explored;
  };
  auto run = [&](ThreadPool* chain_pool) {
    return Outputs{hybrid.PredictResponseTime(profile, input),
                   hybrid.PredictResponseTimePercentile(profile, input, 0.99),
                   ExploreTimeout(hybrid, profile, input, explore, chain_pool)};
  };
  auto expect_same = [](const Outputs& got, const Outputs& want,
                        const std::string& setting) {
    EXPECT_EQ(got.mean, want.mean) << setting;
    EXPECT_EQ(got.p99, want.p99) << setting;
    EXPECT_TRUE(SameExploreResult(got.explored, want.explored)) << setting;
  };

  const Outputs top = run(nullptr);
  std::vector<Outputs> nested(4);
  ThreadPool::Global().ParallelFor(
      nested.size(), [&](size_t i) { nested[i] = run(nullptr); },
      /*grain=*/1);
  for (const Outputs& outputs : nested) {
    expect_same(outputs, top, "nested in the shared pool");
  }
  for (size_t size : {1u, 4u}) {
    ThreadPool pool(size);
    const std::string setting = "pool of " + std::to_string(size);
    expect_same(run(&pool), top, setting);
    pool.ParallelFor(
        nested.size(), [&](size_t i) { nested[i] = run(&pool); },
        /*grain=*/1);
    for (const Outputs& outputs : nested) {
      expect_same(outputs, top, "nested in a " + setting);
    }
  }
}

// ------------------------------------------------------------ calibration
//
// CalibrateProfile draws once per chunk of rows that share a utilization
// and an arrival kind. Every row must still get the bits it gets when it
// is calibrated alone, whatever the row order and the pool.

template <typename T>
void ShuffleInPlace(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBounded(i)]);
  }
}

// 18 rows over four draw keys, interleaved in random order: 9 rows at
// (0.6, exponential), more than two chunks of at most 4 rows; 5 at (0.8,
// exponential); 3 at (0.6, Pareto), the utilization of the first key; and
// one at (0.4, Pareto). Each observation is the simulator's mean at a
// random speedup, jittered by up to 10%.
WorkloadProfile InterleavedKeyProfile(const CalibrationConfig& config,
                                      Rng& rng) {
  WorkloadProfile profile = DummyProfile();
  const EmpiricalDistribution service(profile.service_time_samples);
  const struct {
    double utilization;
    DistributionKind kind;
    int rows;
  } keys[] = {{0.6, DistributionKind::kExponential, 9},
              {0.8, DistributionKind::kExponential, 5},
              {0.6, DistributionKind::kPareto, 3},
              {0.4, DistributionKind::kPareto, 1}};
  for (const auto& key : keys) {
    for (int i = 0; i < key.rows; ++i) {
      ProfileRow row;
      row.utilization = key.utilization;
      row.arrival_kind = key.kind;
      row.timeout_seconds = 20.0 + 140.0 * rng.NextDouble();
      row.refill_seconds = 200.0 + 800.0 * rng.NextDouble();
      row.budget_fraction = 0.1 + 0.6 * rng.NextDouble();
      row.observed_mean_response_time =
          SimulatedResponseTime(profile, ModelInput::FromRow(row), service,
                                0.5 + 1.6 * rng.NextDouble(), config) *
          (0.9 + 0.2 * rng.NextDouble());
      profile.rows.push_back(row);
    }
  }
  ShuffleInPlace(profile.rows, rng);
  return profile;
}

TEST(DeterminismTest, ChunkedCalibrationMatchesPerRowCalibration) {
  CalibrationConfig config;
  config.sim_queries = 3000;
  config.sim_warmup = 300;
  Rng rng(31);
  WorkloadProfile profile = InterleavedKeyProfile(config, rng);
  const EmpiricalDistribution service(profile.service_time_samples);
  for (const char* order : {"random", "reshuffled"}) {
    std::vector<double> alone;
    for (const ProfileRow& row : profile.rows) {
      alone.push_back(CalibrateEffectiveSpeedup(profile, row, service, config));
    }
    for (size_t size : {1u, 2u, 4u}) {
      ThreadPool pool(size);
      WorkloadProfile calibrated = profile;
      ASSERT_EQ(CalibrateProfile(calibrated, config, &pool),
                profile.rows.size());
      for (size_t i = 0; i < alone.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(calibrated.rows[i].effective_speedup),
                  std::bit_cast<uint64_t>(alone[i]))
            << order << " order, pool of " << size << ", row " << i;
      }
    }
    ShuffleInPlace(profile.rows, rng);
  }
}

// ---------------------------------------------------- obs-export golden
//
// Pins what the obs layer exports across versions of src/obs: CI's
// fault-storm testbed recipe with every sink attached (metrics text and
// json, the recorder tail at the default floor and at kWarn, the
// attribution report, the SLO timeline, summary and state), and the
// metrics of a two-chain exploration whose chains count from pool
// workers. Exports longer than kObsGoldenFullBytes, and the binary SLO
// state, are pinned by length and CRC-32. Like the model-pipeline golden,
// these runs draw through libm, so the file also pins the host libm's
// rounding.

constexpr size_t kObsGoldenFullBytes = 8192;

void AppendObsExport(std::string& out, const std::string& name,
                     const std::string& bytes, bool full = true) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(bytes));
  out += "== " + name + " bytes " + std::to_string(bytes.size()) +
         " crc32 " + crc + "\n";
  if (full && bytes.size() <= kObsGoldenFullBytes) {
    out += bytes;
  }
}

// CI's `TB` flags: --workload Jacobi --seed 7 --queries 1200
// --toggle-fail 0.2 --breaker-trips 4 --outliers 0.05 --flash-crowds 1,
// with every other field at the CLI's default.
TestbedConfig CiFaultStormConfig() {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.mechanism = MechanismId::kDvfs;
  config.policy.timeout_seconds = 60.0;
  config.policy.budget_fraction = 0.2;
  config.policy.refill_seconds = 200.0;
  config.utilization = 0.6;
  config.num_queries = 1200;
  config.warmup_queries = 120;
  config.seed = 7;
  config.faults.toggle_failure_probability = 0.2;
  config.faults.breaker_trips_per_hour = 4.0;
  config.faults.outlier_probability = 0.05;
  config.faults.flash_crowds_per_hour = 1.0;
  return config;
}

std::string ObsExportsGoldenExport() {
  std::string out;
  const TestbedConfig storm = CiFaultStormConfig();
  {
    // CI's clean.slo objectives, so the state carries an objective and
    // an anomaly detector.
    obs::SloPipeline slo(obs::ParseSloObjectives(
        "window 600\n"
        "objective goodput_ratio > 0.5 budget 0.5\n"
        "anomaly queue_depth alpha 0.3 z 6 warmup 8\n"));
    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder;
    obs::SpanCollector spans;
    {
      obs::ObsSession session(&metrics, &recorder, &spans, &slo);
      Testbed::Run(storm);
    }
    const obs::MetricsSnapshot snapshot = metrics.Snapshot();
    AppendObsExport(out, "storm metrics text", snapshot.ToText());
    AppendObsExport(out, "storm metrics json", snapshot.ToJson() + "\n");
    AppendObsExport(out, "storm recorder tail, default floor",
                    recorder.FormatTail());
    AppendObsExport(out, "storm attribution",
                    obs::FormatAttribution(obs::Attribute(
                        spans.TakeSpans(), obs::AttributionOptions{})));
    AppendObsExport(out, "storm slo timeline", slo.FormatTimeline());
    AppendObsExport(out, "storm slo summary", slo.FormatSummary());
    AppendObsExport(out, "storm slo state", slo.SaveState(), /*full=*/false);
  }
  {
    // `msprint faults`: metrics plus a warn-floor recorder.
    obs::MetricsRegistry metrics;
    obs::FlightRecorder recorder;
    recorder.SetMinSeverityAll(obs::Severity::kWarn);
    {
      obs::ObsSession session(&metrics, &recorder);
      Testbed::Run(storm);
    }
    AppendObsExport(out, "storm recorder tail, warn floor",
                    recorder.FormatTail());
  }
  {
    const WorkloadProfile profile =
        GoldenCalibratedProfile(QueryMix::Single(WorkloadId::kJacobi));
    const HybridModel model = HybridModel::Train({&profile});
    ModelInput base;
    base.utilization = 0.75;
    base.budget_fraction = 0.2;
    base.refill_seconds = 400.0;
    ExploreConfig explore;
    explore.max_iterations = 60;
    explore.num_chains = 2;
    explore.seed = 7;
    obs::MetricsRegistry metrics;
    {
      obs::ObsSession session(&metrics, nullptr);
      ExploreTimeout(model, profile, base, explore);
    }
    AppendObsExport(out, "explore metrics text", metrics.Snapshot().ToText());
  }
  return out;
}

TEST(DeterminismTest, ObsExportsMatchCommittedGolden) {
  ExpectMatchesGolden(ObsExportsGoldenExport(), "obs_exports.txt");
}

// ------------------------------------------------- testbed storage reuse
//
// Testbed::Run keeps its attempt records and arena block for the next run
// on the same thread. No run may see what an earlier one left there: each
// run below, made after bigger and smaller runs on this thread, must equal
// the same run made first on a fresh thread, trace and exports alike.

std::string FormatQuery(const Query& q) {
  return std::to_string(q.id) + " req=" + std::to_string(q.request_id) +
         " attempt=" + std::to_string(q.attempt) +
         " workload=" + std::to_string(static_cast<int>(q.workload)) +
         " arrival=" + GoldenDouble(q.arrival) +
         " size=" + GoldenDouble(q.size) +
         " service=" + GoldenDouble(q.service_time) +
         " start=" + GoldenDouble(q.start) +
         " depart=" + GoldenDouble(q.depart) +
         " sprint_begin=" + GoldenDouble(q.sprint_begin) +
         " sprint_seconds=" + GoldenDouble(q.sprint_seconds) +
         " first_arrival=" + GoldenDouble(q.first_arrival) + " flags=" +
         (q.timed_out ? "t" : "-") + (q.sprinted ? "s" : "-") +
         (q.shed ? "x" : "-") + (q.abandoned ? "a" : "-") + "\n";
}

// Every aggregate field of a RunTrace, one `name value` line each.
std::string FormatRunAggregates(const RunTrace& trace) {
  std::string out;
  const std::pair<const char*, double> doubles[] = {
      {"mean_response_time", trace.mean_response_time},
      {"mean_queueing_delay", trace.mean_queueing_delay},
      {"mean_processing_time", trace.mean_processing_time},
      {"fraction_sprinted", trace.fraction_sprinted},
      {"fraction_timed_out", trace.fraction_timed_out},
      {"total_sprint_seconds", trace.total_sprint_seconds},
      {"makespan", trace.makespan},
      {"mean_unsprinted_processing_time",
       trace.mean_unsprinted_processing_time},
      {"goodput_per_second", trace.goodput_per_second}};
  for (const auto& [name, v] : doubles) {
    out += std::string(name) + " " + GoldenDouble(v) + "\n";
  }
  const std::pair<const char*, size_t> counts[] = {
      {"shed_count", trace.shed_count},
      {"abandoned_count", trace.abandoned_count},
      {"retry_count", trace.retry_count},
      {"served_count", trace.served_count},
      {"goodput_count", trace.goodput_count},
      {"badput_count", trace.badput_count}};
  for (const auto& [name, v] : counts) {
    out += std::string(name) + " " + std::to_string(v) + "\n";
  }
  return out;
}

std::string FormatRunTrace(const RunTrace& trace) {
  std::string out;
  for (const Query& q : trace.queries) {
    out += FormatQuery(q);
  }
  return out + FormatRunAggregates(trace) +
         FormatFaultTrace(trace.fault_trace);
}

// The run detached, then attached to every sink, rendered as text.
std::string RunDetachedAndAttached(const TestbedConfig& config) {
  std::string out = "== detached\n" + FormatRunTrace(Testbed::Run(config));
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder;
  obs::SpanCollector spans;
  obs::SloPipeline slo;
  RunTrace attached;
  {
    obs::ObsSession session(&metrics, &recorder, &spans, &slo);
    attached = Testbed::Run(config);
  }
  return out + "== attached\n" + FormatRunTrace(attached) +
         metrics.Snapshot().ToText() + recorder.FormatTail() +
         obs::FormatAttribution(
             obs::Attribute(spans.TakeSpans(), obs::AttributionOptions{})) +
         slo.FormatTimeline() + slo.FormatSummary();
}

// A detached Summarize's summary, rendered as text.
std::string SummarizeDetached(const TestbedConfig& config) {
  const RunSummary s = Testbed::Summarize(config);
  std::string out;
  for (const double v : {s.mean_response_time, s.median_response_time,
                         s.fraction_sprinted, s.fraction_timed_out,
                         s.makespan}) {
    out += GoldenDouble(v) + "\n";
  }
  return out;
}

std::string RunOnlyDetached(const TestbedConfig& config) {
  return FormatRunTrace(Testbed::Run(config));
}

// `call(config)` made first on a fresh thread.
std::string RunOnFreshThread(std::string (*call)(const TestbedConfig&),
                             const TestbedConfig& config) {
  std::string out;
  std::thread([&] { out = call(config); }).join();
  return out;
}

TEST(DeterminismTest, TestbedStorageReuseLeavesNoTrace) {
  // The baseline storm side retries up to 4 attempts per request, so its
  // attempt records and arena span 4x the original queries.
  const TestbedConfig storm =
      robust::MakeStormTestbedConfig(robust::StormConfig{},
                                     /*hardened=*/false);
  ASSERT_TRUE(storm.retry.enabled);
  ASSERT_EQ(storm.retry.max_attempts, 4u);
  // A profile-shaped row with more queries than the storm, on a mix: the
  // recursion's draw columns, class column included, outgrow the storm's
  // and then shrink to the plain run's.
  TestbedConfig profile_row;
  profile_row.mix = MakeMixOne();
  profile_row.policy.timeout_seconds = 60.0;
  profile_row.policy.budget_fraction = 0.4;
  profile_row.utilization = 0.75;
  profile_row.num_queries = 6000;
  profile_row.warmup_queries = 600;
  profile_row.seed = 31;
  TestbedConfig plain;
  plain.num_queries = 150;
  plain.warmup_queries = 10;
  plain.seed = 5;

  const std::string fresh_storm =
      RunOnFreshThread(RunDetachedAndAttached, storm);
  const std::string fresh_summary =
      RunOnFreshThread(SummarizeDetached, profile_row);
  const std::string fresh_row = RunOnFreshThread(RunOnlyDetached, profile_row);
  const std::string fresh_plain =
      RunOnFreshThread(RunDetachedAndAttached, plain);
  ASSERT_NE(fresh_storm.find(" attempt=4 "), std::string::npos)
      << "storm side never reached its last attempt";
  EXPECT_EQ(RunDetachedAndAttached(storm), fresh_storm);
  EXPECT_EQ(SummarizeDetached(profile_row), fresh_summary);
  EXPECT_EQ(RunOnlyDetached(profile_row), fresh_row);
  EXPECT_EQ(RunDetachedAndAttached(plain), fresh_plain);
  EXPECT_EQ(RunDetachedAndAttached(storm), fresh_storm);
}

// Testbed::Summarize runs Run's engine and records into the same sinks.
// With a registry, a flight recorder and a span collector attached, and
// with the recorder and collector alone (which keeps the summary's own
// report on the event loop), it must leave Run's exports and report Run's
// summary: on a profile-shaped one-slot run and on a storm side that
// sheds, retries and faults.
TEST(DeterminismTest, TestbedSummarizeLeavesRunsExports) {
  TestbedConfig profile_run;
  profile_run.policy.timeout_seconds = 60.0;
  profile_run.policy.budget_fraction = 0.4;
  profile_run.utilization = 0.75;
  profile_run.num_queries = 1500;
  profile_run.warmup_queries = 150;
  profile_run.seed = 23;
  const TestbedConfig storm =
      robust::MakeStormTestbedConfig(robust::StormConfig{},
                                     /*hardened=*/true);
  for (const TestbedConfig& config : {profile_run, storm}) {
    for (const bool with_registry : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "retry " << config.retry.enabled << ", registry "
                   << with_registry);
      // One call under a fresh session, then every export it left.
      auto exports_of = [&](const auto& call) {
        obs::MetricsRegistry metrics;
        obs::FlightRecorder recorder;
        obs::SpanCollector spans;
        {
          obs::ObsSession session(with_registry ? &metrics : nullptr,
                                  &recorder, &spans);
          call();
        }
        return metrics.Snapshot().ToText() + recorder.FormatTail() +
               obs::FormatAttribution(obs::Attribute(
                   spans.TakeSpans(), obs::AttributionOptions{}));
      };
      RunTrace trace;
      RunSummary summary;
      const std::string run =
          exports_of([&] { trace = Testbed::Run(config); });
      EXPECT_EQ(exports_of([&] { summary = Testbed::Summarize(config); }),
                run);
      EXPECT_NE(run.find("testbed"), std::string::npos);
      auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
      EXPECT_EQ(bits(summary.mean_response_time),
                bits(trace.mean_response_time));
      EXPECT_EQ(bits(summary.median_response_time),
                bits(trace.PercentileResponseTime(0.5)));
      EXPECT_EQ(bits(summary.fraction_sprinted),
                bits(trace.fraction_sprinted));
      EXPECT_EQ(bits(summary.fraction_timed_out),
                bits(trace.fraction_timed_out));
      EXPECT_EQ(bits(summary.makespan), bits(trace.makespan));
    }
  }
}

// ------------------------------------------------- testbed-runs golden
//
// Pins one-slot testbed runs, the profiler's regime, across versions of
// src/testbed: each run's aggregates, median and p99, its first 20 query
// records and the top-3 attribution of the spans an explicit sink
// collected. Like the model-pipeline golden, these runs draw through
// libm, so the file also pins the host libm's rounding.

// The most queries a post-warmup query left waiting when it dispatched:
// later arrivals strictly before its start.
size_t MaxQueuedAtDispatch(const RunTrace& trace) {
  size_t most = 0;
  size_t later = 0;
  for (size_t i = 0; i < trace.queries.size(); ++i) {
    later = std::max(later, i + 1);
    while (later < trace.queries.size() &&
           trace.queries[later].arrival < trace.queries[i].start) {
      ++later;
    }
    most = std::max(most, later - i - 1);
  }
  return most;
}

std::string TestbedRunsGoldenExport() {
  std::vector<std::pair<std::string, TestbedConfig>> cases;
  {
    TestbedConfig config;
    config.mix = QueryMix::Single(WorkloadId::kJacobi);
    config.policy.mechanism = MechanismId::kDvfs;
    config.utilization = 0.5;
    config.arrival_kind = DistributionKind::kExponential;
    config.num_queries = 1000;
    config.warmup_queries = 100;
    config.seed = 11;
    cases.emplace_back("DVFS Jacobi, utilization 0.5, exponential", config);
  }
  {
    // The load factor caps at 10 queued queries; these queues pass it.
    TestbedConfig config;
    config.mix = QueryMix::Uniform({WorkloadId::kJacobi, WorkloadId::kKnn},
                                   0.8);
    config.policy.mechanism = MechanismId::kDvfs;
    config.policy.timeout_seconds = 90.0;
    config.policy.budget_fraction = 0.5;
    config.policy.refill_seconds = 400.0;
    config.utilization = 0.95;
    config.arrival_kind = DistributionKind::kPareto;
    config.num_queries = 2000;
    config.warmup_queries = 200;
    config.seed = 12;
    cases.emplace_back("DVFS Jacobi+KNN, utilization 0.95, Pareto", config);
  }
  {
    TestbedConfig config;
    config.mix = QueryMix::Single(WorkloadId::kLeuk);
    config.policy.mechanism = MechanismId::kCoreScale;
    config.utilization = 0.6;
    config.force_full_sprint = true;
    config.num_queries = 600;
    config.warmup_queries = 60;
    config.seed = 13;
    cases.emplace_back("CoreScale Leuk, force_full_sprint", config);
  }
  {
    TestbedConfig config;
    config.mix = QueryMix::Single(WorkloadId::kMem);
    config.policy.mechanism = MechanismId::kEc2Dvfs;
    config.utilization = 0.75;
    config.arrival_kind = DistributionKind::kDeterministic;
    config.disable_sprinting = true;
    config.num_queries = 600;
    config.warmup_queries = 60;
    config.seed = 14;
    cases.emplace_back("EC2DVFS Mem, disable_sprinting", config);
  }
  {
    TestbedConfig config;
    config.mix = QueryMix::Single(WorkloadId::kJacobi);
    config.policy.mechanism = MechanismId::kCpuThrottle;
    // A 2x sprint, so a 1.5x boost still leaves sprinted work to do.
    config.policy.throttle_fraction = 0.5;
    config.policy.timeout_seconds = 30.0;
    config.policy.budget_fraction = 0.4;
    config.policy.refill_seconds = 300.0;
    config.utilization = 0.7;
    config.service_time_scale = 1.1;
    config.toggle_latency_scale = 0.0;
    config.sprint_boost = 1.5;
    config.num_queries = 800;
    config.warmup_queries = 80;
    config.seed = 15;
    cases.emplace_back(
        "CpuThrottle Jacobi, service x1.1, toggle x0, sprint boost 1.5",
        config);
  }

  std::string out;
  for (auto& [name, config] : cases) {
    obs::SpanCollector spans;
    const obs::Sinks sinks{&spans, nullptr};
    config.sinks = &sinks;
    const RunTrace trace = Testbed::Run(config);
    out += "== " + name + "\n" + FormatRunAggregates(trace);
    out += "median " + GoldenDouble(trace.PercentileResponseTime(0.5)) + "\n";
    out += "p99 " + GoldenDouble(trace.PercentileResponseTime(0.99)) + "\n";
    out += "max_queued_at_dispatch " +
           std::to_string(MaxQueuedAtDispatch(trace)) + "\n";
    for (size_t i = 0; i < std::min<size_t>(trace.queries.size(), 20); ++i) {
      out += FormatQuery(trace.queries[i]);
    }
    obs::AttributionOptions options;
    options.top_k = 3;
    out += obs::FormatAttribution(obs::Attribute(spans.TakeSpans(), options));
  }
  return out;
}

TEST(DeterminismTest, TestbedRunsMatchCommittedGolden) {
  ExpectMatchesGolden(TestbedRunsGoldenExport(), "testbed_runs.txt");
}

// ----------------------------------------------------------------- profiler

// Profiling fans grid rows out on the global pool; each row writes only
// its own slot, so the saved profile is the same bytes as a serial sweep.
TEST(DeterminismTest, ProfileIdenticalForAnyPoolSize) {
  SprintPolicy dvfs;
  dvfs.mechanism = MechanismId::kDvfs;
  SprintPolicy core_scale;
  core_scale.mechanism = MechanismId::kCoreScale;
  const std::pair<QueryMix, SprintPolicy> cases[] = {
      {QueryMix::Single(WorkloadId::kJacobi), dvfs},
      {QueryMix::Uniform({WorkloadId::kJacobi, WorkloadId::kKnn}, 0.8),
       core_scale}};
  for (const auto& [mix, platform] : cases) {
    ProfilerConfig config;
    config.sample_grid_points = 12;
    config.queries_per_run = 600;
    config.warmup_queries = 60;
    std::string bytes[2];
    for (const size_t pool_size : {size_t{1}, size_t{0}}) {
      config.pool_size = pool_size;
      std::ostringstream text;
      SaveProfile(ProfileWorkload(mix, platform, config), text);
      bytes[pool_size == 1 ? 0 : 1] = text.str();
    }
    ASSERT_FALSE(bytes[0].empty());
    EXPECT_EQ(bytes[0], bytes[1]) << mix.Describe();
  }
}

}  // namespace
}  // namespace msprint
