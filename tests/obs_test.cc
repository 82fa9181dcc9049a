// Tests for the observability layer (src/obs): sharded metrics, the
// flight recorder ring, byte-stable exports, and the idle/attached helper
// behavior. The cross-pool-size byte-identity of full drives is covered in
// determinism_test.cc; these tests pin down the unit-level contracts.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/recorder.h"

namespace msprint {
namespace obs {
namespace {

// --- MetricsRegistry ----------------------------------------------------

TEST(MetricsRegistryTest, CounterAccumulatesAcrossThreads) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("test/hits");
  ThreadPool pool(4);
  pool.ParallelFor(1000, [&](size_t) { counter.Add(3); });
  EXPECT_EQ(counter.Value(), 3000u);
}

TEST(MetricsRegistryTest, GetReturnsStableHandles) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test/a");
  Counter& b = registry.GetCounter("test/a");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.Value(), 1u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("z/last").Add(1);
  registry.GetCounter("a/first").Add(1);
  registry.GetCounter("m/middle").Add(1);
  const MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].first, "a/first");
  EXPECT_EQ(snapshot.counters[1].first, "m/middle");
  EXPECT_EQ(snapshot.counters[2].first, "z/last");
}

TEST(MetricsRegistryTest, HistogramMergesShardsExactly) {
  MetricsRegistry registry(8);
  Histogram& hist = registry.GetHistogram("test/latency");
  ThreadPool pool(4);
  // 4000 samples spread over racing workers; bucket counts and min/max are
  // order-independent, so the merged summary must be exact.
  pool.ParallelFor(4000, [&](size_t i) {
    hist.Record(0.001 * static_cast<double>(1 + (i % 100)));
  });
  const LogHistogram merged = hist.Merged();
  EXPECT_EQ(merged.count(), 4000u);
  EXPECT_EQ(merged.rejected(), 0u);
  EXPECT_DOUBLE_EQ(merged.min(), 0.001);
  EXPECT_DOUBLE_EQ(merged.max(), 0.100);
}

TEST(MetricsRegistryTest, HistogramRejectsNonFinite) {
  MetricsRegistry registry;
  Histogram& hist = registry.GetHistogram("test/h");
  hist.Record(std::numeric_limits<double>::quiet_NaN());
  hist.Record(std::numeric_limits<double>::infinity());
  hist.Record(-1.0);
  hist.Record(2.0);
  const LogHistogram merged = hist.Merged();
  EXPECT_EQ(merged.count(), 1u);
  EXPECT_EQ(merged.rejected(), 3u);
  EXPECT_DOUBLE_EQ(merged.min(), 2.0);
  EXPECT_DOUBLE_EQ(merged.max(), 2.0);
}

// A run publishes a local LogHistogram once; the registry must end up as
// if every sample had been recorded one by one, signed zeros and
// rejections included.
TEST(MetricsRegistryTest, RecordAllMatchesPerSampleRecord) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> batches = {
      {},
      {-0.0, 0.0, 1.5, nan, -2.0, inf, 1e-12, 3e13, 42.0, -0.0},
      {},
      {0.0, -0.0, 7.25, -inf, 1e12, 9.99e11},
      {nan},
      {2.5e-9, 1e-9, 0.37, 0.37, 123456.0}};
  MetricsRegistry per_sample(4);
  MetricsRegistry batched(4);
  for (const std::vector<double>& batch : batches) {
    LogHistogram local;
    for (const double v : batch) {
      per_sample.GetHistogram("t/h").Record(v);
      local.Record(v);
    }
    batched.GetHistogram("t/h").RecordAll(local);
    const LogHistogram want = per_sample.GetHistogram("t/h").Merged();
    const LogHistogram got = batched.GetHistogram("t/h").Merged();
    EXPECT_EQ(got.buckets(), want.buckets());
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.rejected(), want.rejected());
    EXPECT_EQ(std::bit_cast<uint64_t>(got.min()),
              std::bit_cast<uint64_t>(want.min()));
    EXPECT_EQ(std::bit_cast<uint64_t>(got.max()),
              std::bit_cast<uint64_t>(want.max()));
    EXPECT_EQ(batched.Snapshot().ToText(), per_sample.Snapshot().ToText());
    EXPECT_EQ(batched.Snapshot().ToJson(), per_sample.Snapshot().ToJson());
  }
  EXPECT_NE(batched.Snapshot().ToText().find("min=-0 "), std::string::npos);
}

TEST(MetricsRegistryTest, SnapshotRenderingIsByteStable) {
  auto build = [] {
    MetricsRegistry registry;
    registry.GetCounter("t/c").Add(7);
    registry.GetGauge("t/g").Set(0.1 + 0.2);  // not exactly 0.3
    Histogram& hist = registry.GetHistogram("t/h");
    hist.Record(1.5);
    hist.Record(2.5);
    return registry.Snapshot();
  };
  const MetricsSnapshot a = build();
  const MetricsSnapshot b = build();
  EXPECT_EQ(a.ToText(), b.ToText());
  EXPECT_EQ(a.ToJson(), b.ToJson());
  // %.17g round-trips the exact double, not a shortest-form approximation.
  EXPECT_NE(a.ToText().find(StableDouble(0.1 + 0.2)), std::string::npos);
}

TEST(StableDoubleTest, RoundTripsExactly) {
  for (double v : {0.1, 1.0 / 3.0, 1e-300, 123456.789, 0.0}) {
    EXPECT_EQ(std::stod(StableDouble(v)), v) << StableDouble(v);
  }
}

// StableDouble renders through std::to_chars; every export's bytes were
// defined by printf's %.17g, so the two must agree on every double.
std::string PrintfG17(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

TEST(StableDoubleTest, MatchesPrintfG17) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, inf, -inf, nan, -nan,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), DBL_MAX, -DBL_MAX,
      9007199254740992.0 - 1.0, 9007199254740992.0, 9007199254740992.0 + 2.0,
      0.1 + 0.2, 1.0 / 3.0, 5e-324, 1e-5, 1e-4, 123456.789};
  for (int e = -320; e <= 308; ++e) {
    values.push_back(std::pow(10.0, e));
  }
  for (double v : values) {
    EXPECT_EQ(StableDouble(v), PrintfG17(v)) << PrintfG17(v);
  }
  // Random bit patterns cover every exponent, both signs and NaN payloads.
  std::mt19937_64 rng(20261016);
  size_t mismatches = 0;
  std::string appended;
  for (int i = 0; i < 1000000; ++i) {
    const double v = std::bit_cast<double>(rng());
    const std::string want = PrintfG17(v);
    if (StableDouble(v) != want) {
      ADD_FAILURE() << "bits " << std::bit_cast<uint64_t>(v) << ": "
                    << StableDouble(v) << " vs " << want;
      if (++mismatches == 10) break;
    }
    appended.clear();
    AppendStableDouble(appended, v);
    ASSERT_EQ(appended, want);
  }
  // Random bit patterns almost never draw an integral value, so those are
  // listed: every integer in [0, 1e5], 1e5 random ones in [1, 1e15), the
  // neighbours of 1e15 and of 2^53, and the negatives of all of them.
  std::vector<double> integral;
  for (int i = 0; i <= 100000; ++i) {
    integral.push_back(i);
  }
  std::uniform_int_distribution<uint64_t> below_1e15(1, 999999999999999);
  for (int i = 0; i < 100000; ++i) {
    integral.push_back(static_cast<double>(below_1e15(rng)));
  }
  for (const double edge : {1e15 - 1.0, 1e15, 1e15 + 1.0,
                            9007199254740992.0 - 1.0,
                            9007199254740992.0 + 1.0}) {
    integral.push_back(edge);
  }
  mismatches = 0;
  for (const double magnitude : integral) {
    for (const double v : {magnitude, -magnitude}) {
      const std::string want = PrintfG17(v);
      appended.clear();
      AppendStableDouble(appended, v);
      if (StableDouble(v) != want || appended != want) {
        ADD_FAILURE() << StableDouble(v) << " / " << appended << " vs "
                      << want;
        if (++mismatches == 10) return;
      }
    }
  }
}

// --- FlightRecorder -----------------------------------------------------

Event MakeEvent(double time, Severity severity = Severity::kInfo,
                Subsystem subsystem = Subsystem::kTestbed) {
  Event event;
  event.time = time;
  event.kind = EventKind::kQueueArrival;
  event.subsystem = subsystem;
  event.severity = severity;
  return event;
}

TEST(FlightRecorderTest, RingOverwritesOldestFirst) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    recorder.Record(MakeEvent(static_cast<double>(i)));
  }
  const std::vector<Event> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_DOUBLE_EQ(events.front().time, 6.0);
  EXPECT_DOUBLE_EQ(events.back().time, 9.0);
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_EQ(recorder.overwritten(), 6u);
}

TEST(FlightRecorderTest, SeverityFloorAppliesToEverySubsystem) {
  FlightRecorder recorder;
  recorder.SetMinSeverityAll(Severity::kWarn);
  recorder.Record(MakeEvent(1.0, Severity::kDebug));  // filtered
  recorder.Record(MakeEvent(2.0, Severity::kError));  // kept
  recorder.Record(MakeEvent(3.0, Severity::kDebug, Subsystem::kOnline));
  recorder.Record(MakeEvent(4.0, Severity::kWarn, Subsystem::kOnline));
  const std::vector<Event> events = recorder.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 2.0);
  EXPECT_DOUBLE_EQ(events[1].time, 4.0);
  EXPECT_EQ(recorder.filtered(), 2u);

  // Lowering the floor admits what it used to drop.
  recorder.SetMinSeverityAll(Severity::kDebug);
  recorder.Record(MakeEvent(5.0, Severity::kDebug, Subsystem::kSlo));
  EXPECT_EQ(recorder.Events().size(), 3u);
  EXPECT_EQ(recorder.filtered(), 2u);
}

TEST(FlightRecorderTest, FormatTailIsByteStable) {
  auto build = [] {
    FlightRecorder recorder;
    Event event = MakeEvent(12.345678);
    event.kind = EventKind::kRungTransition;
    event.subsystem = Subsystem::kOnline;
    event.severity = Severity::kWarn;
    event.id = 2;
    event.value = 0.75;
    recorder.Record(event);
    return recorder.FormatTail();
  };
  const std::string tail = build();
  EXPECT_EQ(tail, build());
  EXPECT_NE(tail.find("rung-transition"), std::string::npos);
  EXPECT_NE(tail.find("online"), std::string::npos);
  EXPECT_NE(tail.find("sev=warn"), std::string::npos);
}

TEST(ExportTest, JsonlOneLinePerEvent) {
  FlightRecorder recorder;
  recorder.Record(MakeEvent(1.0));
  recorder.Record(MakeEvent(2.0));
  const std::string jsonl = EventsToJsonl(recorder.Events());
  size_t lines = 0;
  for (char c : jsonl) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(jsonl.find("{\"time\":"), 0u);
}

TEST(ExportTest, ChromeTraceSpansAndInstants) {
  Event instant = MakeEvent(1.0);
  Event span = MakeEvent(2.0);
  span.duration = 0.5;
  const std::string trace = EventsToChromeTrace({instant, span});
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // ts is microseconds of simulated time.
  EXPECT_NE(trace.find("\"ts\":2000000"), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":500000"), std::string::npos);
}

// --- attachment helpers -------------------------------------------------

TEST(ObsSessionTest, HelpersAreNoOpsWhenIdle) {
  ASSERT_EQ(ActiveMetrics(), nullptr);
  ASSERT_EQ(ActiveRecorder(), nullptr);
  // Must not crash or allocate a registry.
  Count("idle/counter");
  Observe("idle/hist", 1.0);
  SetGauge("idle/gauge", 2.0);
  Emit(1.0, EventKind::kReplan, Subsystem::kOnline, Severity::kInfo);
  EXPECT_EQ(ActiveMetrics(), nullptr);
}

TEST(ObsSessionTest, SessionsNestAndRestore) {
  MetricsRegistry outer_metrics;
  MetricsRegistry inner_metrics;
  FlightRecorder recorder;
  {
    ObsSession outer(&outer_metrics, &recorder);
    EXPECT_EQ(ActiveMetrics(), &outer_metrics);
    Count("nest/hits");
    {
      ObsSession inner(&inner_metrics, nullptr);
      EXPECT_EQ(ActiveMetrics(), &inner_metrics);
      EXPECT_EQ(ActiveRecorder(), nullptr);
      Count("nest/hits");
    }
    EXPECT_EQ(ActiveMetrics(), &outer_metrics);
    EXPECT_EQ(ActiveRecorder(), &recorder);
    Count("nest/hits");
  }
  EXPECT_EQ(ActiveMetrics(), nullptr);
  EXPECT_EQ(ActiveRecorder(), nullptr);
  EXPECT_EQ(outer_metrics.GetCounter("nest/hits").Value(), 2u);
  EXPECT_EQ(inner_metrics.GetCounter("nest/hits").Value(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace msprint
