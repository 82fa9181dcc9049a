// Tests for streaming SLO telemetry (src/obs/sketch, src/obs/slo):
// the quantile sketch (relative-error rank bound, fail-closed wire
// format), the sim-time tumbling-window pipeline (signals, burn-rate
// alerts, anomaly detection, byte-stable exports), the shared nearest-rank
// quantile rule (exported summaries vs LogHistogram::ApproxQuantile), and
// the bit-exact state round trip that persistence builds on. The corruption
// harness over the checkpoint "slo" section lives in persist_test.cc; the
// cross-pool-size byte-identity of CLI exports is CI's obs job.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/recorder.h"
#include "src/obs/sketch.h"
#include "src/obs/slo.h"
#include "src/persist/persist.h"
#include "src/robust/storm.h"
#include "src/sim/queue_simulator.h"
#include "src/testbed/testbed.h"
#include "src/workload/workload.h"

namespace msprint {
namespace obs {
namespace {

// --- QuantileSketch -----------------------------------------------------

TEST(QuantileSketchTest, EmptySketchIsZero) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.min(), 0.0);
  EXPECT_EQ(sketch.max(), 0.0);
}

TEST(QuantileSketchTest, RejectsNonFiniteAndNegative) {
  QuantileSketch sketch;
  EXPECT_FALSE(sketch.Insert(-1.0));
  EXPECT_FALSE(sketch.Insert(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(sketch.Insert(std::numeric_limits<double>::infinity()));
  EXPECT_TRUE(sketch.Insert(1.0));
  EXPECT_EQ(sketch.count(), 1u);
  EXPECT_EQ(sketch.rejected(), 3u);
}

TEST(QuantileSketchTest, TinyValuesLandInZeroBucket) {
  QuantileSketch sketch(0.01);
  EXPECT_TRUE(sketch.Insert(0.0));
  EXPECT_TRUE(sketch.Insert(1e-12));
  EXPECT_TRUE(sketch.Insert(5.0));
  EXPECT_EQ(sketch.count(), 3u);
  // Rank 1 and 2 sit in the zero bucket, reported as the min envelope.
  EXPECT_EQ(sketch.Quantile(0.0), 0.0);
  EXPECT_EQ(sketch.Quantile(0.5), 0.0);
  EXPECT_EQ(sketch.Quantile(1.0), 5.0);
}

// The DDSketch contract: every quantile estimate is within the relative
// accuracy of the true (nearest-rank) sample quantile.
TEST(QuantileSketchTest, RelativeErrorBoundHolds) {
  const double kAccuracy = 0.02;
  std::mt19937_64 rng(20260808);
  std::lognormal_distribution<double> dist(0.0, 1.5);
  std::vector<double> samples;
  QuantileSketch sketch(kAccuracy);
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    samples.push_back(v);
    ASSERT_TRUE(sketch.Insert(v));
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const uint64_t target = QuantileRankTarget(samples.size(), q);
    const double exact = samples[target - 1];
    const double estimate = sketch.Quantile(q);
    EXPECT_LE(std::abs(estimate - exact), kAccuracy * exact)
        << "q=" << q << " exact=" << exact << " estimate=" << estimate;
  }
}

TEST(QuantileSketchTest, SerializeRoundTripsBitExactly) {
  QuantileSketch sketch(0.015);
  std::mt19937_64 rng(11);
  std::exponential_distribution<double> dist(0.5);
  for (int i = 0; i < 500; ++i) sketch.Insert(dist(rng));
  sketch.Insert(-3.0);  // rejected counter must round-trip too
  const std::string bytes = sketch.Serialize();
  const QuantileSketch back = QuantileSketch::Deserialize(bytes);
  EXPECT_EQ(back.Serialize(), bytes);
  EXPECT_EQ(back.count(), sketch.count());
  EXPECT_EQ(back.rejected(), sketch.rejected());
  EXPECT_EQ(back.Quantile(0.9), sketch.Quantile(0.9));
}

TEST(QuantileSketchTest, DeserializeFailsClosedOnCorruption) {
  QuantileSketch sketch(0.01);
  for (int i = 1; i <= 64; ++i) sketch.Insert(0.25 * i);
  const std::string bytes = sketch.Serialize();
  EXPECT_THROW(QuantileSketch::Deserialize(""), persist::PersistError);
  EXPECT_THROW(QuantileSketch::Deserialize(bytes.substr(0, bytes.size() / 2)),
               persist::PersistError);
  EXPECT_THROW(QuantileSketch::Deserialize(bytes + "x"),
               persist::PersistError);
  // Single-byte flips must never produce a silently-wrong sketch: either
  // the parse throws or the reserialized bytes equal the mutated input.
  std::mt19937_64 rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const size_t pos = rng() % mutated.size();
    mutated[pos] = static_cast<char>(mutated[pos] ^ (1u << (rng() % 8)));
    try {
      const QuantileSketch back = QuantileSketch::Deserialize(mutated);
      EXPECT_EQ(back.Serialize(), mutated);
    } catch (const persist::PersistError&) {
      // fail-closed: fine
    }
  }
}

// --- shared nearest-rank quantile rule ----------------------------------

// Exported summaries quote LogHistogram::ApproxQuantile exactly — one
// quantile rule across attribution, stats exports and the SLO engine.
TEST(SharedQuantileTest, HistogramSnapshotMatchesLogHistogram) {
  LogHistogram histogram;
  std::mt19937_64 rng(29);
  std::lognormal_distribution<double> dist(0.0, 2.0);
  for (int i = 0; i < 5000; ++i) histogram.Record(dist(rng));
  const HistogramSnapshot snapshot =
      SummarizeLogHistogram("test/h", histogram);
  EXPECT_EQ(snapshot.p50, histogram.ApproxQuantile(0.50));
  EXPECT_EQ(snapshot.p90, histogram.ApproxQuantile(0.90));
  EXPECT_EQ(snapshot.p99, histogram.ApproxQuantile(0.99));
}

TEST(SharedQuantileTest, RankTargetIsNearestRank) {
  EXPECT_EQ(QuantileRankTarget(10, 0.0), 1u);
  EXPECT_EQ(QuantileRankTarget(10, 0.5), 5u);
  EXPECT_EQ(QuantileRankTarget(10, 1.0), 10u);
  EXPECT_EQ(QuantileRankTarget(1, 0.99), 1u);
  EXPECT_EQ(QuantileRankTarget(10, -3.0), 1u);  // clamped
  EXPECT_EQ(QuantileRankTarget(10, 7.0), 10u);  // clamped
}

// --- objectives file parser ---------------------------------------------

TEST(SloParserTest, ParsesFullGrammar) {
  const SloConfig config = ParseSloObjectives(
      "# latency SLOs\n"
      "window 10\n"
      "accuracy 0.02\n"
      "capacity 128\n"
      "burn fast 5 60 14.4\n"
      "burn slow 30 360 6\n"
      "objective p99 < 60 budget 0.05\n"
      "objective goodput_ratio > 0.95\n"
      "anomaly queue_depth alpha 0.25 z 3 warmup 4\n");
  EXPECT_EQ(config.window_seconds, 10.0);
  EXPECT_EQ(config.sketch_relative_accuracy, 0.02);
  EXPECT_EQ(config.timeline_capacity, 128u);
  ASSERT_EQ(config.objectives.size(), 2u);
  EXPECT_EQ(config.objectives[0].signal, SloSignal::kP99);
  EXPECT_EQ(config.objectives[0].op, SloOp::kLt);
  EXPECT_EQ(config.objectives[0].threshold, 60.0);
  EXPECT_EQ(config.objectives[0].budget, 0.05);
  EXPECT_EQ(config.objectives[1].signal, SloSignal::kGoodputRatio);
  EXPECT_EQ(config.objectives[1].op, SloOp::kGt);
  ASSERT_EQ(config.anomalies.size(), 1u);
  EXPECT_EQ(config.anomalies[0].signal, SloSignal::kQueueDepth);
  EXPECT_EQ(config.anomalies[0].alpha, 0.25);
  EXPECT_EQ(config.anomalies[0].warmup_windows, 4u);
}

TEST(SloParserTest, RejectsMalformedInput) {
  EXPECT_THROW(ParseSloObjectives("objective p99 <\n"), std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("objective nosuch < 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("objective p99 ~ 1\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("window -5\n"), std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("frobnicate 3\n"), std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("objective p99 < 1 budget 2\n"),
               std::invalid_argument);
  EXPECT_THROW(ParseSloObjectives("burn fast 60 5 14.4\n"),
               std::invalid_argument);
}

// --- windowing and signals ----------------------------------------------

SloConfig SmallConfig() {
  SloConfig config;
  config.window_seconds = 1.0;
  // One-window burn horizons so alert behavior is easy to reason about.
  config.burn.fast_short_seconds = 1.0;
  config.burn.fast_long_seconds = 1.0;
  config.burn.fast_threshold = 1e9;  // effectively off unless overridden
  config.burn.slow_short_seconds = 1.0;
  config.burn.slow_long_seconds = 1.0;
  config.burn.slow_threshold = 1e9;
  return config;
}

TEST(SloPipelineTest, TumblingWindowsCloseOnAdvance) {
  SloPipeline pipeline(SmallConfig());
  pipeline.OnArrival(0.25);
  pipeline.OnResponse(0.75, 0.1, true);
  pipeline.OnArrival(1.5);  // rolls window 0 closed
  EXPECT_EQ(pipeline.windows_closed(), 1u);
  pipeline.Finish(2.0);  // closes window 1 and the partial window 2
  const auto& timeline = pipeline.timeline();
  ASSERT_GE(timeline.size(), 2u);
  EXPECT_EQ(timeline[0].index, 0u);
  EXPECT_EQ(timeline[0].arrivals, 1u);
  EXPECT_EQ(timeline[0].responses, 1u);
  EXPECT_EQ(timeline[0].good, 1u);
  EXPECT_EQ(timeline[1].arrivals, 1u);
  EXPECT_EQ(timeline[1].responses, 0u);
}

TEST(SloPipelineTest, SignalValuesMatchDefinitions) {
  SloConfig config = SmallConfig();
  SloPipeline pipeline(config);
  pipeline.OnArrival(0.1);
  pipeline.OnArrival(0.2);
  pipeline.OnShed(0.3);
  pipeline.OnResponse(0.4, 0.5, true);
  pipeline.OnResponse(0.5, 1.5, false);
  pipeline.OnSprintEngage(0.6);
  pipeline.OnQueueDepth(0.7, 3.0);
  pipeline.OnQueueDepth(0.8, 7.0);
  pipeline.OnBudgetLevel(0.9, 12.5);
  pipeline.Finish(1.0);

  const auto timeline = pipeline.timeline();
  ASSERT_GE(timeline.size(), 1u);
  const SloWindow& w = timeline[0];
  double value = 0.0;
  ASSERT_TRUE(w.SignalValue(SloSignal::kGoodputRatio, 1.0, &value));
  EXPECT_DOUBLE_EQ(value, 1.0 / 3.0);  // good / (good + bad + shed)
  ASSERT_TRUE(w.SignalValue(SloSignal::kShedFraction, 1.0, &value));
  EXPECT_DOUBLE_EQ(value, 1.0 / 3.0);  // shed / (arrivals + shed)
  ASSERT_TRUE(w.SignalValue(SloSignal::kQueueDepth, 1.0, &value));
  EXPECT_EQ(value, 7.0);  // last observation
  ASSERT_TRUE(w.SignalValue(SloSignal::kBudgetLevel, 1.0, &value));
  EXPECT_EQ(value, 12.5);
  ASSERT_TRUE(w.SignalValue(SloSignal::kEngageRate, 1.0, &value));
  EXPECT_EQ(value, 1.0);
  ASSERT_TRUE(w.SignalValue(SloSignal::kArrivalRate, 1.0, &value));
  EXPECT_EQ(value, 3.0);  // (arrivals + shed) / window
  ASSERT_TRUE(w.SignalValue(SloSignal::kMeanResponse, 1.0, &value));
  EXPECT_DOUBLE_EQ(value, 1.0);  // (0.5 + 1.5) / 2
}

TEST(SloPipelineTest, EmptyWindowsAreNotEvaluated) {
  SloConfig config = SmallConfig();
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 1.0;
  objective.budget = 0.5;
  config.objectives.push_back(objective);
  SloPipeline pipeline(config);
  pipeline.OnResponse(0.5, 2.0, true);  // violating window 0
  pipeline.Finish(5.0);                 // windows 1..4 carry no data
  ASSERT_EQ(pipeline.objective_states().size(), 1u);
  const SloObjectiveState& state = pipeline.objective_states()[0];
  EXPECT_EQ(state.windows_evaluated, 1u);
  EXPECT_EQ(state.bad_windows, 1u);
  EXPECT_TRUE(pipeline.BurnedThrough());  // 1/1 > 0.5
}

// --- burn-rate alerts ---------------------------------------------------

TEST(SloPipelineTest, BurnRateAlertFiresAndClears) {
  SloConfig config = SmallConfig();
  config.burn.fast_threshold = 2.0;  // page when burn > 2x budget
  config.burn.slow_threshold = 2.0;
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 1.0;
  objective.budget = 0.25;
  config.objectives.push_back(objective);

  MetricsRegistry metrics;
  FlightRecorder recorder;
  ObsSession session(&metrics, &recorder);
  SloPipeline pipeline(config);
  // Violating windows 0..3: burn rate 1/0.25 = 4 > 2 -> fires.
  for (int w = 0; w < 4; ++w) {
    pipeline.OnResponse(w + 0.5, 5.0, true);
  }
  // Healthy windows 4..9: burn rate falls to 0 -> clears.
  for (int w = 4; w < 10; ++w) {
    pipeline.OnResponse(w + 0.5, 0.1, true);
  }
  pipeline.Finish(10.0);

  EXPECT_EQ(pipeline.AlertsFired(), 1u);
  EXPECT_EQ(pipeline.AlertsCleared(), 1u);
  EXPECT_GT(pipeline.alert_windows(), 0u);
  EXPECT_GE(pipeline.FirstAlertSeconds(), 0.0);
  EXPECT_GT(pipeline.PagingFraction(), 0.0);
  EXPECT_LT(pipeline.PagingFraction(), 1.0);

  // The fire/clear transitions land in the flight recorder taxonomy.
  size_t fires = 0;
  size_t clears = 0;
  for (const Event& event : recorder.Events()) {
    if (event.kind == EventKind::kSloAlertFire) ++fires;
    if (event.kind == EventKind::kSloAlertClear) ++clears;
    if (event.kind == EventKind::kSloAlertFire) {
      EXPECT_EQ(event.subsystem, Subsystem::kSlo);
      EXPECT_EQ(event.severity, Severity::kError);
    }
  }
  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(clears, 1u);
}

TEST(SloPipelineTest, HealthyRunNeverPages) {
  SloConfig config = SmallConfig();
  config.burn.fast_threshold = 2.0;
  config.burn.slow_threshold = 2.0;
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 1.0;
  objective.budget = 0.25;
  config.objectives.push_back(objective);
  SloPipeline pipeline(config);
  for (int w = 0; w < 20; ++w) pipeline.OnResponse(w + 0.5, 0.1, true);
  pipeline.Finish(20.0);
  EXPECT_EQ(pipeline.AlertsFired(), 0u);
  EXPECT_EQ(pipeline.alert_windows(), 0u);
  EXPECT_LT(pipeline.FirstAlertSeconds(), 0.0);
  EXPECT_FALSE(pipeline.BurnedThrough());
}

// --- anomaly detection --------------------------------------------------

TEST(SloPipelineTest, EwmaAnomalyDetectorFlagsSpike) {
  SloConfig config = SmallConfig();
  SloAnomalyConfig anomaly;
  anomaly.signal = SloSignal::kQueueDepth;
  anomaly.alpha = 0.3;
  anomaly.z = 3.0;
  anomaly.warmup_windows = 4;
  config.anomalies.push_back(anomaly);

  MetricsRegistry metrics;
  FlightRecorder recorder;
  ObsSession session(&metrics, &recorder);
  SloPipeline pipeline(config);
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> jitter(3.9, 4.1);
  for (int w = 0; w < 30; ++w) {
    pipeline.OnQueueDepth(w + 0.5, jitter(rng));
  }
  pipeline.OnQueueDepth(30.5, 400.0);  // the spike
  pipeline.Finish(31.0);

  EXPECT_GE(pipeline.anomaly_count(), 1u);
  bool saw_anomaly_event = false;
  for (const Event& event : recorder.Events()) {
    if (event.kind == EventKind::kSloAnomaly) {
      saw_anomaly_event = true;
      EXPECT_EQ(event.subsystem, Subsystem::kSlo);
    }
  }
  EXPECT_TRUE(saw_anomaly_event);
}

TEST(SloPipelineTest, SteadySignalRaisesNoAnomaly) {
  SloConfig config = SmallConfig();
  SloAnomalyConfig anomaly;
  anomaly.signal = SloSignal::kQueueDepth;
  anomaly.warmup_windows = 4;
  config.anomalies.push_back(anomaly);
  SloPipeline pipeline(config);
  // A constant signal has zero EWMA variance; the detector must treat
  // that as "nothing to score", not divide by zero or page.
  for (int w = 0; w < 50; ++w) pipeline.OnQueueDepth(w + 0.5, 4.0);
  pipeline.Finish(50.0);
  EXPECT_EQ(pipeline.anomaly_count(), 0u);
}

// --- exports ------------------------------------------------------------

void FeedDeterministic(SloPipeline& pipeline, int windows) {
  std::mt19937_64 rng(99);
  std::exponential_distribution<double> service(2.0);
  for (int w = 0; w < windows; ++w) {
    const double base = w * 1.0;
    pipeline.OnArrival(base + 0.1);
    pipeline.OnResponse(base + 0.4, service(rng), true);
    pipeline.OnQueueDepth(base + 0.5, (double)(w % 5));
    pipeline.OnBudgetLevel(base + 0.6, 10.0 - 0.1 * w);
    if (w % 7 == 0) pipeline.OnShed(base + 0.7);
    if (w % 3 == 0) pipeline.OnSprintEngage(base + 0.8);
  }
  pipeline.Finish(windows * 1.0);
}

TEST(SloPipelineTest, ExportsAreByteStableAcrossIdenticalFeeds) {
  SloConfig config = SmallConfig();
  SloObjective objective;
  objective.signal = SloSignal::kGoodputRatio;
  objective.op = SloOp::kGt;
  objective.threshold = 0.5;
  objective.budget = 0.5;
  config.objectives.push_back(objective);

  SloPipeline a(config);
  SloPipeline b(config);
  FeedDeterministic(a, 40);
  FeedDeterministic(b, 40);
  EXPECT_EQ(a.FormatTimeline(), b.FormatTimeline());
  EXPECT_EQ(a.FormatTimelineJsonl(), b.FormatTimelineJsonl());
  EXPECT_EQ(a.FormatSummary(), b.FormatSummary());
  EXPECT_EQ(a.FormatWatch(), b.FormatWatch());
  EXPECT_NE(a.FormatTimeline().find("# msprint slo timeline v1"),
            std::string::npos);
  EXPECT_NE(a.FormatSummary().find("burned_through"), std::string::npos);
}

TEST(SloPipelineTest, RingDropsOldWindowsButCountsThem) {
  SloConfig config = SmallConfig();
  config.timeline_capacity = 8;
  SloPipeline pipeline(config);
  FeedDeterministic(pipeline, 100);
  EXPECT_GT(pipeline.windows_dropped(), 0u);
  EXPECT_EQ(pipeline.windows_closed(),
            pipeline.windows_dropped() + pipeline.timeline().size());
}

TEST(SloPipelineTest, FinishPublishesMetrics) {
  MetricsRegistry metrics;
  ObsSession session(&metrics, nullptr);
  SloPipeline pipeline(SmallConfig());
  FeedDeterministic(pipeline, 10);
  const std::string text = metrics.Snapshot().ToText();
  EXPECT_NE(text.find("slo/windows"), std::string::npos);
}

// --- bit-exact state round trip -----------------------------------------

TEST(SloStateTest, SaveRestoreRoundTripsBitExactly) {
  SloConfig config = SmallConfig();
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 0.8;
  objective.budget = 0.3;
  config.objectives.push_back(objective);
  SloAnomalyConfig anomaly;
  anomaly.signal = SloSignal::kQueueDepth;
  config.anomalies.push_back(anomaly);

  SloPipeline pipeline(config);
  std::mt19937_64 rng(123);
  std::exponential_distribution<double> service(1.5);
  for (int w = 0; w < 25; ++w) {
    pipeline.OnArrival(w + 0.2);
    pipeline.OnResponse(w + 0.6, service(rng), w % 4 != 0);
    pipeline.OnQueueDepth(w + 0.7, (double)(w % 3));
  }
  // Mid-window state (not finished): the checkpoint case.
  const std::string bytes = pipeline.SaveState();
  const SloPipeline restored = SloPipeline::RestoreState(bytes);
  EXPECT_EQ(restored.SaveState(), bytes);
  EXPECT_EQ(restored.FormatTimeline(), pipeline.FormatTimeline());
  EXPECT_EQ(restored.windows_closed(), pipeline.windows_closed());
}

// The headline persistence property: interrupt mid-window, restore, feed
// the remainder — the timeline and summary are byte-identical to a run
// that was never interrupted.
TEST(SloStateTest, ResumedPipelineReproducesTimelineByteForByte) {
  SloConfig config = SmallConfig();
  config.burn.fast_threshold = 2.0;
  config.burn.slow_threshold = 2.0;
  SloObjective objective;
  objective.signal = SloSignal::kP99;
  objective.op = SloOp::kLt;
  objective.threshold = 0.5;
  objective.budget = 0.25;
  config.objectives.push_back(objective);

  // Record one deterministic event stream.
  struct Ev {
    double t;
    double rt;
  };
  std::vector<Ev> events;
  std::mt19937_64 rng(321);
  std::exponential_distribution<double> service(1.0);
  for (int w = 0; w < 60; ++w) {
    events.push_back({w + 0.3, service(rng)});
    events.push_back({w + 0.7, service(rng)});
  }

  SloPipeline uninterrupted(config);
  for (const Ev& e : events) uninterrupted.OnResponse(e.t, e.rt, true);
  uninterrupted.Finish(60.0);

  SloPipeline first_half(config);
  const size_t cut = events.size() / 2 + 1;  // mid-window
  for (size_t i = 0; i < cut; ++i) {
    first_half.OnResponse(events[i].t, events[i].rt, true);
  }
  SloPipeline resumed = SloPipeline::RestoreState(first_half.SaveState());
  for (size_t i = cut; i < events.size(); ++i) {
    resumed.OnResponse(events[i].t, events[i].rt, true);
  }
  resumed.Finish(60.0);

  EXPECT_EQ(resumed.FormatTimeline(), uninterrupted.FormatTimeline());
  EXPECT_EQ(resumed.FormatTimelineJsonl(),
            uninterrupted.FormatTimelineJsonl());
  EXPECT_EQ(resumed.FormatSummary(), uninterrupted.FormatSummary());
  EXPECT_EQ(resumed.AlertsFired(), uninterrupted.AlertsFired());
}

// Locates `fields` (little-endian wire encodings), which must occur in
// `bytes` exactly once.
size_t FindFields(const std::string& bytes, const std::string& fields) {
  const size_t at = bytes.find(fields);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(bytes.rfind(fields), at) << "fields occur more than once";
  return at;
}

std::string U64(uint64_t v) {
  persist::Writer out;
  out.PutU64(v);
  return out.Take();
}

std::string F64(double v) {
  persist::Writer out;
  out.PutF64(v);
  return out.Take();
}

// Each window record starts with its index and bounds.
std::string WindowHead(uint64_t index) {
  return U64(index) + F64(index * 5.0) + F64(index * 5.0 + 5.0);
}

// Short input is kTruncated; everything else, including a config that
// SloConfig validation rejects, is kFormat.
TEST(SloStateTest, RestoreFailsClosedOnCorruption) {
  SloPipeline pipeline(SmallConfig());
  FeedDeterministic(pipeline, 5);
  const std::string bytes = pipeline.SaveState();
  auto code = [](const std::string& state) {
    try {
      SloPipeline::RestoreState(state);
    } catch (const persist::PersistError& error) {
      return error.code();
    }
    ADD_FAILURE() << "malformed state restored";
    return persist::ErrorCode::kIo;
  };
  EXPECT_EQ(code(""), persist::ErrorCode::kTruncated);
  EXPECT_EQ(code(bytes.substr(0, bytes.size() - 3)),
            persist::ErrorCode::kTruncated);
  EXPECT_EQ(code(bytes + "zz"), persist::ErrorCode::kFormat);
  // window_seconds and the sketch accuracy follow the 5-byte header.
  std::string bad_window = bytes;
  bad_window.replace(5, 8, F64(-5.0));
  EXPECT_EQ(code(bad_window), persist::ErrorCode::kFormat);
  std::string bad_accuracy = bytes;
  bad_accuracy.replace(13, 8, F64(2.0));
  EXPECT_EQ(code(bad_accuracy), persist::ErrorCode::kFormat);
}

// SaveState writes the closed ring as the whole retained range, contiguous
// and ending just before the open window. Restore refuses any other shape:
// the pipeline keeps only non-empty windows and derives the rest from the
// range, so a misshapen ring would render a timeline that disagrees with
// its own header.
TEST(SloStateTest, RestoreRejectsMisshapenClosedRing) {
  SloConfig config;
  config.timeline_capacity = 100;  // above the 73-window burn floor
  SloPipeline pipeline(config);
  for (int w = 0; w < 150; ++w) {
    pipeline.OnResponse(w * 5.0 + 1.0, 0.5, true);
  }
  // Window 149 is open; 0..148 closed, 49 dropped, 49..148 retained.
  ASSERT_EQ(pipeline.windows_closed(), 149u);
  ASSERT_EQ(pipeline.windows_dropped(), 49u);
  const std::string good = pipeline.SaveState();
  EXPECT_EQ(SloPipeline::RestoreState(good).SaveState(), good);

  auto patched = [&good](const std::string& from, const std::string& to) {
    std::string bytes = good;
    bytes.replace(FindFields(bytes, from), to.size(), to);
    return bytes;
  };
  // Indices increase but skip: the first retained window claims index 10.
  EXPECT_THROW(
      SloPipeline::RestoreState(patched(WindowHead(49), U64(10))),
      persist::PersistError);
  // The ring ends at 148 but the open window claims 155.
  EXPECT_THROW(
      SloPipeline::RestoreState(patched(WindowHead(149), U64(155))),
      persist::PersistError);
  // 100 windows in the ring, but the counts say 101.
  EXPECT_THROW(SloPipeline::RestoreState(
                   patched(U64(149) + U64(49), U64(150) + U64(49))),
               persist::PersistError);
  // Counts and ring agree, but 100 windows exceed an 80-window capacity.
  EXPECT_THROW(SloPipeline::RestoreState(
                   patched(F64(5.0) + F64(0.01) + U64(100),
                           F64(5.0) + F64(0.01) + U64(80))),
               persist::PersistError);
}

// --- golden across window gaps -----------------------------------------
//
// tests/golden/slo_windows.txt pins every SLO export byte for byte across
// gaps of empty windows. It was generated by the pipeline that built and
// stored every closed window, and the pipeline that stores only windows
// with data or mask bits must reproduce it. Each data window holds one
// response, so every printed window quantile is that exact sample. Exports
// up to kGoldenFullBytes are recorded in full, longer ones as their length
// and CRC-32.
//
// Regenerate (only when intentionally changing export bytes) with
// MSPRINT_UPDATE_GOLDEN=1 ./build/tests/slo_test

constexpr size_t kGoldenFullBytes = 8192;
constexpr double kGoldenWindow = 5.0;  // SloConfig's default

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < bytes.size(); ++i) {
    out += kDigits[static_cast<unsigned char>(bytes[i]) >> 4];
    out += kDigits[static_cast<unsigned char>(bytes[i]) & 15];
    if (i % 64 == 63 || i + 1 == bytes.size()) out += '\n';
  }
  return out;
}

void AppendGolden(std::string& out, const std::string& name,
                  const std::string& text, bool full) {
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x", Crc32(text));
  out += "-- " + name + " bytes " + std::to_string(text.size()) + " crc32 " +
         crc + "\n";
  if (full && text.size() <= kGoldenFullBytes) out += text;
}

void AppendGoldenExports(std::string& out, const std::string& label,
                         const SloPipeline& pipeline, bool full) {
  AppendGolden(out, label + " timeline", pipeline.FormatTimeline(), full);
  AppendGolden(out, label + " jsonl", pipeline.FormatTimelineJsonl(), full);
  AppendGolden(out, label + " watch", pipeline.FormatWatch(), full);
  AppendGolden(out, label + " summary", pipeline.FormatSummary(), full);
  AppendGolden(out, label + " state", Hex(pipeline.SaveState()), full);
}

// One data window: an arrival and a single response, plus sheds, sprint
// engages and aborts, timeouts and gauges cycling with the ordinal.
void FeedGoldenWindow(SloPipeline& pipeline, uint64_t index, int k) {
  const double t = (static_cast<double>(index) + 0.25) * kGoldenWindow;
  pipeline.OnArrival(t);
  pipeline.OnResponse(t + 0.5, 0.5 + 0.75 * (k % 9), k % 4 != 3);
  if (k % 3 == 0) pipeline.OnShed(t + 1.0);
  if (k % 2 == 0) pipeline.OnSprintEngage(t + 1.5);
  if (k % 5 == 1) {
    pipeline.OnSprintAbort(t + 2.0);
    pipeline.OnTimeout(t + 2.0);
  }
  if (k % 2 == 1) pipeline.OnQueueDepth(t + 2.5, k % 6);
  if (k % 3 != 2) pipeline.OnBudgetLevel(t + 3.0, 10.0 - 0.5 * k);
}

// Exports of every config x capacity case, the uninterrupted pipeline in
// full and a pipeline saved and restored inside the last long gap as
// digests; `resumed_matches` reports whether the two agree.
std::string SloGoldenExport(bool* resumed_matches) {
  const std::vector<std::pair<std::string, std::string>> configs = {
      {"default", ""},
      // p99 is never evaluated on an empty window; engage_rate and
      // arrival_rate are, and arrival_rate > 0.1 fails on every one.
      {"objectives",
       "burn fast 5 10 14.4\n"
       "burn slow 10 30 6\n"
       "objective p99 < 3 budget 0.05\n"
       "objective engage_rate < 0.1 budget 0.25\n"
       "objective arrival_rate > 0.1 budget 0.1\n"
       "anomaly arrival_rate alpha 0.3 z 2 warmup 2\n"
       "anomaly p99 alpha 0.5 z 1.5 warmup 1\n"},
      // Alerts outlive the data into the gaps, then clear.
      {"p99",
       "burn fast 5 10 14.4\n"
       "burn slow 10 30 6\n"
       "objective p99 < 3 budget 0.05\n"
       "anomaly queue_depth alpha 0.3 z 1 warmup 1\n"},
  };
  *resumed_matches = true;
  std::string out = "# msprint slo golden v1\n";
  for (const auto& [name, objectives] : configs) {
    for (const uint64_t capacity : {1, 7, 4096}) {
      SloConfig config = ParseSloObjectives(objectives);
      config.timeline_capacity = capacity;
      const double longest = std::max(config.burn.fast_long_seconds,
                                      config.burn.slow_long_seconds);
      const uint64_t retained = std::max<uint64_t>(
          capacity,
          static_cast<uint64_t>(std::ceil(longest / kGoldenWindow)) + 1);
      // Empty windows between consecutive data windows; the pipeline is
      // saved and restored just before the second long gap.
      const std::vector<uint64_t> gaps = {
          0, 1, capacity - 1, capacity, retained - 1, retained,
          3 * retained + 5, 3 * retained + 5, 0};
      const size_t split = 7;

      FlightRecorder recorder(1 << 16);
      SloPipeline uninterrupted(config);
      SloPipeline first(config);
      std::string split_state;
      std::optional<SloPipeline> resumed;
      uint64_t index = 0;
      for (size_t k = 0; k <= gaps.size(); ++k) {
        if (k == split) {
          split_state = first.SaveState();
          resumed.emplace(SloPipeline::RestoreState(split_state));
        }
        {
          ObsSession session(nullptr, &recorder);
          FeedGoldenWindow(uninterrupted, index, static_cast<int>(k));
        }
        FeedGoldenWindow(resumed ? *resumed : first, index,
                         static_cast<int>(k));
        if (k < gaps.size()) index += 1 + gaps[k];
      }
      const double end = (static_cast<double>(index) + 3.0) * kGoldenWindow;
      {
        ObsSession session(nullptr, &recorder);
        uninterrupted.Finish(end);
      }
      resumed->Finish(end);

      const std::string label =
          name + " capacity " + std::to_string(capacity);
      out += "== " + label + " retained " + std::to_string(retained) +
             " data windows " + std::to_string(gaps.size() + 1) + "\n";
      AppendGoldenExports(out, "final", uninterrupted, /*full=*/true);
      AppendGolden(out, "final events", recorder.FormatTail(), true);
      AppendGolden(out, "split state", Hex(split_state), true);
      AppendGoldenExports(out, "resumed", *resumed, /*full=*/false);
      *resumed_matches =
          *resumed_matches &&
          resumed->FormatTimeline() == uninterrupted.FormatTimeline() &&
          resumed->FormatTimelineJsonl() ==
              uninterrupted.FormatTimelineJsonl() &&
          resumed->FormatWatch() == uninterrupted.FormatWatch() &&
          resumed->FormatSummary() == uninterrupted.FormatSummary() &&
          resumed->SaveState() == uninterrupted.SaveState();
    }
  }
  return out;
}

TEST(SloGoldenTest, ExportsAcrossGapsMatchCommittedGolden) {
  bool resumed_matches = false;
  const std::string got = SloGoldenExport(&resumed_matches);
  EXPECT_TRUE(resumed_matches)
      << "a pipeline restored inside a gap diverged from the uninterrupted one";
  const std::string path =
      std::string(MSPRINT_SOURCE_DIR) + "/tests/golden/slo_windows.txt";
  if (const char* update = std::getenv("MSPRINT_UPDATE_GOLDEN");
      update != nullptr && update[0] != '\0' && update[0] != '0') {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    out.close();
    GTEST_SKIP() << "golden rewritten: " << path;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (generate with MSPRINT_UPDATE_GOLDEN=1)";
  const std::string want((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  ASSERT_EQ(got.size(), want.size()) << "golden size diverged";
  EXPECT_EQ(got, want);
}

// --- testbed integration ------------------------------------------------

// Same seed, same pipeline feed: two observed testbed runs produce
// byte-identical timelines, and the windowed response count covers at
// least the trace's post-warmup served attempts (the pipeline also sees
// warmup traffic; the <2% overhead claim is the bench job's gate).
TEST(SloIntegrationTest, TestbedFeedIsDeterministicAndComplete) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.num_queries = 400;
  config.warmup_queries = 40;
  config.seed = 9;

  SloConfig slo_config;
  slo_config.window_seconds = 200.0;

  std::string first;
  size_t responses = 0;
  for (int run = 0; run < 2; ++run) {
    SloPipeline pipeline(slo_config);
    ObsSession session(nullptr, nullptr, nullptr, &pipeline);
    const RunTrace trace = Testbed::Run(config);
    uint64_t windowed = 0;
    for (const SloWindow& w : pipeline.timeline()) windowed += w.responses;
    size_t served = 0;
    for (const Query& query : trace.queries) {
      if (query.Served()) ++served;
    }
    EXPECT_GE(windowed, served);
    responses = served;
    if (run == 0) {
      first = pipeline.FormatTimeline();
    } else {
      EXPECT_EQ(pipeline.FormatTimeline(), first);
    }
  }
  EXPECT_GT(responses, 100u);
}

// The simulator never feeds an attached pipeline or collector: simulations
// run on pool workers, and both sinks are serial-only. Spans reach a
// caller only through SimConfig::span_sink; SLO timelines of simulated
// runs come from replaying the returned trace after the run (whatif).
TEST(SloIntegrationTest, SimulatorLeavesAttachedSinksUntouched) {
  const ExponentialDistribution service(2.0);
  SimConfig config;
  config.service = &service;
  config.arrival_rate_per_second = 0.2;
  config.timeout_seconds = 30.0;
  config.num_queries = 300;
  config.warmup_queries = 0;
  config.seed = 11;

  SloConfig slo_config;
  slo_config.window_seconds = 100.0;
  SloPipeline pipeline(slo_config);
  SpanCollector collector;
  ObsSession session(nullptr, nullptr, &collector, &pipeline);
  SpanCollector sink;
  for (SpanCollector* span_sink : {static_cast<SpanCollector*>(nullptr),
                                   &sink}) {
    config.span_sink = span_sink;
    SimulateQueue(config);
  }
  // Byte-equal to a pipeline nothing touched, open window included.
  EXPECT_EQ(pipeline.SaveState(), SloPipeline(slo_config).SaveState());
  EXPECT_EQ(collector.recorded(), 0u);
  EXPECT_EQ(sink.recorded(), config.num_queries);
}

}  // namespace
}  // namespace obs
}  // namespace msprint
