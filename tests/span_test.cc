// Tests for the per-query causal span layer: the exact additive
// attribution invariant (signed components sum bit-for-bit to the measured
// response time, asserted — never repaired — over seeded fault-storm
// runs), the aggregation/report layer, the obs-diff regression comparator,
// and the span recording rules (serial paths only, explicit opt-in for the
// simulator, byte-identical output for any pool size).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "src/obs/attrib.h"
#include "src/obs/diff.h"
#include "src/obs/export.h"
#include "src/obs/obs.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/sim/queue_simulator.h"
#include "src/testbed/testbed.h"

namespace msprint {
namespace obs {
namespace {

// ------------------------------------------------------------------ ticks

TEST(SpanTicksTest, QuantizesAndRoundsHalfAwayFromZero) {
  EXPECT_EQ(TicksFromSeconds(0.0), 0);
  EXPECT_EQ(TicksFromSeconds(1.0), 1000000000);
  EXPECT_EQ(TicksFromSeconds(1.5e-9), 2);
  EXPECT_EQ(TicksFromSeconds(-1.5e-9), -2);
  EXPECT_EQ(TicksFromSeconds(2.25), 2250000000);
  EXPECT_EQ(TicksFromSeconds(-2.25), -2250000000);
}

TEST(SpanTicksTest, NonFiniteInputIsDefinedNotUB) {
  EXPECT_EQ(TicksFromSeconds(std::numeric_limits<double>::quiet_NaN()), 0);
  EXPECT_EQ(TicksFromSeconds(std::numeric_limits<double>::infinity()),
            4000000000000000000);
  EXPECT_EQ(TicksFromSeconds(-std::numeric_limits<double>::infinity()),
            -4000000000000000000);
  EXPECT_EQ(TicksFromSeconds(1e300), 4000000000000000000);
}

TEST(SpanTicksTest, FormatIsFixedNineDecimalRendering) {
  EXPECT_EQ(FormatTicksSeconds(0), "0.000000000");
  EXPECT_EQ(FormatTicksSeconds(1), "0.000000001");
  EXPECT_EQ(FormatTicksSeconds(1500000000), "1.500000000");
  EXPECT_EQ(FormatTicksSeconds(-1234567890), "-1.234567890");
}

// ------------------------------------------------------------ build spans

SpanInputs PlainInputs() {
  SpanInputs in;
  in.id = 7;
  in.klass = 1;
  in.arrival = 10.0;
  in.start = 12.5;
  in.depart = 15.0;
  in.service_time = 2.5;
  return in;
}

TEST(BuildQuerySpanTest, PlainQueryDecomposesIntoWaitPlusService) {
  const QuerySpan span = BuildQuerySpan(PlainInputs());
  EXPECT_EQ(span.components[static_cast<size_t>(SpanComponent::kQueueWait)],
            TicksFromSeconds(2.5));
  EXPECT_EQ(span.components[static_cast<size_t>(SpanComponent::kService)],
            TicksFromSeconds(2.5));
  EXPECT_EQ(
      span.components[static_cast<size_t>(SpanComponent::kInterference)], 0);
  EXPECT_EQ(span.components[static_cast<size_t>(SpanComponent::kFaultDelay)],
            0);
  EXPECT_EQ(
      span.components[static_cast<size_t>(SpanComponent::kToggleOverhead)],
      0);
  // start + service lands exactly on depart, so the sprint delta — the
  // residual against the unsprinted counterfactual — is exactly zero.
  EXPECT_EQ(
      span.components[static_cast<size_t>(SpanComponent::kSprintDelta)], 0);
  EXPECT_TRUE(span.IdentityHolds());
  EXPECT_EQ(span.num_phases, 0u);
  EXPECT_EQ(span.sprint_begin, -1);
}

TEST(BuildQuerySpanTest, OverheadsLandInTheirOwnComponents) {
  SpanInputs in = PlainInputs();
  in.load_factor = 1.1;
  in.fault_multiplier = 2.0;
  in.toggle_seconds = 0.25;
  in.depart = 20.0;
  in.sprinted = true;
  in.sprint_begin = 14.0;
  const QuerySpan span = BuildQuerySpan(in);
  EXPECT_GT(
      span.components[static_cast<size_t>(SpanComponent::kInterference)], 0);
  EXPECT_GT(span.components[static_cast<size_t>(SpanComponent::kFaultDelay)],
            0);
  EXPECT_EQ(
      span.components[static_cast<size_t>(SpanComponent::kToggleOverhead)],
      TicksFromSeconds(0.25));
  EXPECT_TRUE(span.IdentityHolds());
  EXPECT_TRUE(span.sprinted);
  EXPECT_EQ(span.sprint_begin, TicksFromSeconds(14.0));
}

TEST(BuildQuerySpanTest, SprintDeltaIsNegativeWhenSprintSavedTime) {
  SpanInputs in = PlainInputs();
  in.depart = 13.75;  // finished 1.25 s earlier than start + service
  in.sprinted = true;
  in.sprint_begin = 12.5;
  const QuerySpan span = BuildQuerySpan(in);
  EXPECT_EQ(
      span.components[static_cast<size_t>(SpanComponent::kSprintDelta)],
      TicksFromSeconds(-1.25));
  EXPECT_TRUE(span.IdentityHolds());
}

TEST(BuildQuerySpanTest, PhaseTicksSumExactlyToServiceComponent) {
  SpanInputs in = PlainInputs();
  // Fractions deliberately not summing to 1.0 in floating point.
  const double fractions[3] = {0.1, 0.2, 0.7000000000000001};
  in.phase_fractions = fractions;
  in.num_phases = 3;
  const QuerySpan span = BuildQuerySpan(in);
  ASSERT_EQ(span.num_phases, 3u);
  EXPECT_EQ(span.PhaseSum(),
            span.components[static_cast<size_t>(SpanComponent::kService)]);
  EXPECT_TRUE(span.IdentityHolds());
}

TEST(BuildQuerySpanTest, PhaseCountIsCappedAtCapacity) {
  SpanInputs in = PlainInputs();
  const double fractions[12] = {0.1, 0.1, 0.1, 0.1, 0.1, 0.1,
                                0.1, 0.1, 0.1, 0.05, 0.025, 0.025};
  in.phase_fractions = fractions;
  in.num_phases = 12;
  const QuerySpan span = BuildQuerySpan(in);
  EXPECT_EQ(span.num_phases, kMaxSpanPhases);
  EXPECT_EQ(span.PhaseSum(),
            span.components[static_cast<size_t>(SpanComponent::kService)]);
}

// -------------------------------------------------------------- recording

TestbedConfig StormConfig(uint64_t seed) {
  TestbedConfig config;
  config.mix = QueryMix::Single(WorkloadId::kJacobi);
  config.policy.timeout_seconds = 40.0;
  config.utilization = 0.6;
  config.num_queries = 600;
  config.warmup_queries = 60;
  config.seed = seed;
  config.faults.toggle_failure_probability = 0.2;
  config.faults.breaker_trips_per_hour = 4.0;
  config.faults.outlier_probability = 0.05;
  config.faults.flash_crowds_per_hour = 1.0;
  return config;
}

// The tentpole property: over seeded fault-storm runs, every recorded
// query's signed components sum bit-for-bit to its measured response time,
// and the response time agrees with the testbed's own trace.
TEST(SpanRecordingTest, FaultStormAttributionIsExactForEveryQuery) {
  for (uint64_t seed : {7u, 77u, 770u}) {
    const TestbedConfig config = StormConfig(seed);
    SpanCollector collector;
    ObsSession session(nullptr, nullptr, &collector);
    const RunTrace trace = Testbed::Run(config);
    const std::vector<QuerySpan> spans = collector.TakeSpans();
    ASSERT_EQ(spans.size(), trace.queries.size()) << "seed " << seed;
    size_t sprinted = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      const QuerySpan& span = spans[i];
      ASSERT_TRUE(span.IdentityHolds())
          << "seed " << seed << " query " << span.id << ": components sum "
          << span.ComponentSum() << " != response " << span.ResponseTicks();
      EXPECT_EQ(span.ResponseTicks(),
                TicksFromSeconds(trace.queries[i].depart) -
                    TicksFromSeconds(trace.queries[i].arrival));
      EXPECT_EQ(span.PhaseSum(),
                span.components[static_cast<size_t>(SpanComponent::kService)]);
      if (span.sprinted) ++sprinted;
    }
    // The storm must actually exercise the interesting components.
    EXPECT_GT(sprinted, 0u) << "seed " << seed;
  }
}

TEST(SpanRecordingTest, TestbedRecordsNothingWithoutCollector) {
  // No session at all: the run must not crash and nothing is recorded.
  SpanCollector collector;
  Testbed::Run(StormConfig(7));
  EXPECT_EQ(collector.recorded(), 0u);
}

TEST(SpanRecordingTest, TwoArgObsSessionMasksSpans) {
  // The metrics/recorder-only session must mask any outer span collector:
  // spans only flow when explicitly requested.
  SpanCollector outer;
  ObsSession with_spans(nullptr, nullptr, &outer);
  {
    MetricsRegistry metrics;
    FlightRecorder recorder;
    ObsSession masked(&metrics, &recorder);
    EXPECT_EQ(ActiveSpans(), nullptr);
    Testbed::Run(StormConfig(7));
  }
  EXPECT_EQ(outer.recorded(), 0u);
  EXPECT_EQ(ActiveSpans(), &outer);
}

// TestbedConfig::sinks replaces the session's span collector and SLO
// pipeline for its run: a run with sinks records only into its own, and a
// run without records into the session's, from the same hooks.
TEST(SpanRecordingTest, ConfigSinksReplaceTheSession) {
  SpanCollector session_spans;
  SloPipeline session_slo;
  ObsSession session(nullptr, nullptr, &session_spans, &session_slo);

  SpanCollector own_spans;
  SloPipeline own_slo;
  const Sinks sinks{&own_spans, &own_slo};
  TestbedConfig config = StormConfig(7);
  config.sinks = &sinks;
  const RunTrace trace = Testbed::Run(config);
  EXPECT_EQ(own_spans.recorded(), trace.queries.size());
  EXPECT_GT(own_slo.windows_closed(), 0u);
  EXPECT_EQ(session_spans.recorded(), 0u);
  EXPECT_EQ(session_slo.windows_closed(), 0u);

  config.sinks = nullptr;
  (void)Testbed::Run(config);
  EXPECT_EQ(session_spans.recorded(), trace.queries.size());
  EXPECT_EQ(session_slo.FormatTimeline(), own_slo.FormatTimeline());
  EXPECT_EQ(session_slo.FormatSummary(), own_slo.FormatSummary());
  EXPECT_EQ(own_spans.recorded(), trace.queries.size());
}

// The simulator's only span sink is SimConfig::span_sink. A collector
// attached through ObsSession sees nothing, with or without a sink set;
// the sink gets one identity-holding span per served post-warmup query.
TEST(SpanRecordingTest, SimulatorRecordsOnlyIntoExplicitSink) {
  const ExponentialDistribution service(1.0 / 60.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.015;
  config.service = &service;
  config.sprint_speedup = 1.4;
  config.timeout_seconds = 70.0;
  config.num_queries = 400;
  config.warmup_queries = 40;
  config.seed = 3;
  // A short queue cap sheds some arrivals, which never get a span.
  config.admission.policy = robust::AdmissionPolicy::kQueueCap;
  config.admission.queue_cap = 2;

  SpanCollector attached;
  ObsSession session(nullptr, nullptr, &attached);
  SimulateQueue(config);
  SpanCollector sink;
  config.span_sink = &sink;
  std::vector<SimQuery> trace;
  const SimResult result = SimulateQueue(config, &trace);
  EXPECT_EQ(attached.recorded(), 0u) << "sim recorded into the session";
  ASSERT_GT(result.shed_count, 0u);

  std::vector<uint64_t> served;
  for (size_t i = config.warmup_queries; i < trace.size(); ++i) {
    if (!trace[i].shed) served.push_back(i);
  }
  const std::vector<QuerySpan> spans = sink.TakeSpans();
  ASSERT_EQ(spans.size(), served.size());
  ASSERT_EQ(spans.size(), result.response_times.size());
  for (size_t k = 0; k < spans.size(); ++k) {
    EXPECT_EQ(spans[k].id, served[k]);
    ASSERT_TRUE(spans[k].IdentityHolds()) << "query " << spans[k].id;
    EXPECT_EQ(spans[k].num_phases, 0u);  // the simulator models no phases
  }
}

TEST(SpanCollectorTest, RecordAndBatchAppendInOrder) {
  SpanCollector collector;
  QuerySpan span{};
  span.id = 1;
  collector.Record(span);
  std::vector<QuerySpan> batch(2, QuerySpan{});
  batch[0].id = 2;
  batch[1].id = 3;
  collector.RecordBatch(std::move(batch));
  EXPECT_EQ(collector.recorded(), 3u);
  const std::vector<QuerySpan> spans = collector.TakeSpans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[1].id, 2u);
  EXPECT_EQ(spans[2].id, 3u);
  EXPECT_EQ(collector.recorded(), 0u);
}

// ------------------------------------------------------------ attribution

std::vector<QuerySpan> StormSpans() {
  SpanCollector collector;
  ObsSession session(nullptr, nullptr, &collector);
  Testbed::Run(StormConfig(7));
  return collector.TakeSpans();
}

TEST(AttributionTest, ReportInvariants) {
  const std::vector<QuerySpan> spans = StormSpans();
  AttributionOptions options;
  options.top_k = 5;
  const AttributionReport report = Attribute(spans, options);
  EXPECT_EQ(report.num_queries, spans.size());
  EXPECT_EQ(report.identity_violations, 0u);
  uint64_t critical_total = 0;
  int64_t component_total = 0;
  for (size_t i = 0; i < kNumSpanComponents; ++i) {
    critical_total += report.components[i].critical;
    component_total += report.components[i].total_ticks;
  }
  // Every query has exactly one critical component, and the component
  // totals telescope to the total response time — the per-query identity
  // survives aggregation.
  EXPECT_EQ(critical_total, report.num_queries);
  EXPECT_EQ(component_total, report.total_response_ticks);
  ASSERT_EQ(report.slowest.size(), 5u);
  for (size_t i = 1; i < report.slowest.size(); ++i) {
    EXPECT_GE(report.slowest[i - 1].ResponseTicks(),
              report.slowest[i].ResponseTicks());
  }
  EXPECT_EQ(report.slowest.front().ResponseTicks(),
            report.max_response_ticks);
}

TEST(AttributionTest, FormatIsDeterministicAndSelfDescribing) {
  const std::vector<QuerySpan> spans = StormSpans();
  const AttributionReport report = Attribute(spans, AttributionOptions{});
  const std::string a = FormatAttribution(report);
  const std::string b = FormatAttribution(Attribute(spans, {}));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("counter span/queries"), std::string::npos);
  EXPECT_NE(a.find("counter span/identity-violations 0"), std::string::npos);
  EXPECT_NE(a.find("gauge span/frac/service"), std::string::npos);
  EXPECT_NE(a.find("hist span/added/queue-wait_seconds"), std::string::npos);
  EXPECT_NE(a.find("# critical path:"), std::string::npos);
  EXPECT_NE(a.find("identity=exact"), std::string::npos);
  EXPECT_EQ(a.find("identity=VIOLATED"), std::string::npos);
}

TEST(AttributionTest, ViolationIsReportedNotRepaired) {
  QuerySpan span{};
  span.id = 9;
  span.arrival = 0;
  span.start = TicksFromSeconds(1.0);
  span.depart = TicksFromSeconds(3.0);
  span.components[static_cast<size_t>(SpanComponent::kQueueWait)] =
      TicksFromSeconds(1.0);
  // Service component deliberately one tick short of closing the identity.
  span.components[static_cast<size_t>(SpanComponent::kService)] =
      TicksFromSeconds(2.0) - 1;
  ASSERT_FALSE(span.IdentityHolds());
  const AttributionReport report = Attribute({span}, AttributionOptions{});
  EXPECT_EQ(report.identity_violations, 1u);
  EXPECT_NE(FormatSpanTree(span).find("identity=VIOLATED"),
            std::string::npos);
}

// Attribute ranks its top-K through pointers; the report must be the one
// a partial sort of copied spans gives, also where response ticks tie and
// where ids repeat, so that only the permutation tells tied spans apart.
TEST(AttributionTest, TopKMatchesSortingCopiedSpans) {
  std::vector<QuerySpan> spans;
  for (uint32_t i = 0; i < 60; ++i) {
    QuerySpan span{};
    // Spans i and i + 39 share both the id and the response ticks.
    span.id = i % 13;
    span.klass = i;
    span.arrival = i;
    span.depart = span.arrival + TicksFromSeconds(1.0 + i % 3);
    span.components[static_cast<size_t>(SpanComponent::kService)] =
        span.ResponseTicks();
    spans.push_back(span);
  }
  for (const size_t k : {0, 1, 5, 17, 60, 100}) {
    AttributionOptions options;
    options.top_k = k;
    const AttributionReport report = Attribute(spans, options);
    std::vector<QuerySpan> sorted = spans;
    const size_t n = std::min(k, sorted.size());
    std::partial_sort(sorted.begin(), sorted.begin() + n, sorted.end(),
                      [](const QuerySpan& a, const QuerySpan& b) {
                        if (a.ResponseTicks() != b.ResponseTicks()) {
                          return a.ResponseTicks() > b.ResponseTicks();
                        }
                        return a.id < b.id;
                      });
    sorted.resize(n);
    ASSERT_EQ(report.slowest.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(report.slowest[i].klass, sorted[i].klass) << "k " << k;
    }
    AttributionReport copied = report;
    copied.slowest = sorted;
    EXPECT_EQ(FormatAttribution(report), FormatAttribution(copied));
  }
}

TEST(AttributionTest, ChromeTraceExportNestsSpans) {
  const std::vector<QuerySpan> spans = StormSpans();
  const std::string trace = SpansToChromeTrace(spans);
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front(), '[');
  EXPECT_EQ(trace.back(), '\n');
  EXPECT_NE(trace.find("\"query\""), std::string::npos);
  EXPECT_NE(trace.find("\"queue-wait\""), std::string::npos);
  EXPECT_NE(trace.find("\"phase-0\""), std::string::npos);
  EXPECT_EQ(SpansToChromeTrace(spans), trace);  // byte-stable
}

// --------------------------------------------------------------- obs-diff

TEST(ObsDiffTest, IdenticalExportsCompareClean) {
  const std::string text =
      "# header comment\n"
      "counter span/queries 540\n"
      "gauge span/frac/service 0.75\n"
      "hist span/added/service_seconds count=10 min=1 max=2 p50~1.5\n"
      "free-form line\n";
  const DiffResult result = DiffExports(text, text, DiffOptions{});
  EXPECT_FALSE(result.breached());
  EXPECT_EQ(result.changed, 0u);
  EXPECT_GT(result.compared, 0u);
  EXPECT_NE(result.report.find("# summary:"), std::string::npos);
  EXPECT_NE(result.report.find(" OK"), std::string::npos);
}

TEST(ObsDiffTest, ExactFieldChangeBreachesAtZeroTolerance) {
  const DiffResult result = DiffExports("counter span/queries 540\n",
                                        "counter span/queries 541\n",
                                        DiffOptions{});
  EXPECT_TRUE(result.breached());
  EXPECT_NE(result.report.find("breach counter span/queries"),
            std::string::npos);
}

TEST(ObsDiffTest, ToleranceTurnsBreachIntoChange) {
  DiffOptions options;
  options.max_rel = 0.05;
  const DiffResult result = DiffExports("gauge a/b 100.0\n",
                                        "gauge a/b 102.0\n", options);
  EXPECT_FALSE(result.breached());
  EXPECT_EQ(result.changed, 1u);
  EXPECT_NE(result.report.find("change gauge a/b"), std::string::npos);
}

TEST(ObsDiffTest, ApproxFieldsUseApproxTolerance) {
  // p50 is rendered with '~' (log-bucket approximation): one bucket step
  // (~58% relative) passes under the default approx tolerance while the
  // exact count field still breaches on any change.
  const std::string a = "hist h count=10 p50~1.0\n";
  const std::string b = "hist h count=10 p50~1.5\n";
  EXPECT_FALSE(DiffExports(a, b, DiffOptions{}).breached());
  DiffOptions strict;
  strict.approx_rel = 0.0;
  EXPECT_TRUE(DiffExports(a, b, strict).breached());
  EXPECT_TRUE(DiffExports("hist h count=10 p50~1.0\n",
                          "hist h count=11 p50~1.0\n", DiffOptions{})
                  .breached());
}

TEST(ObsDiffTest, MissingMetricIsAppendOnlyBreach) {
  const std::string a = "counter x 1\ncounter y 2\n";
  const std::string b = "counter x 1\n";
  const DiffResult ab = DiffExports(a, b, DiffOptions{});
  EXPECT_TRUE(ab.breached());
  EXPECT_NE(ab.report.find("breach only-in-a counter y"), std::string::npos);
  const DiffResult ba = DiffExports(b, a, DiffOptions{});
  EXPECT_TRUE(ba.breached());
  EXPECT_NE(ba.report.find("breach only-in-b counter y"), std::string::npos);
}

TEST(ObsDiffTest, OpaqueLinesComparedWithMultiplicity) {
  const DiffResult result =
      DiffExports("free line\nfree line\n", "free line\n", DiffOptions{});
  EXPECT_TRUE(result.breached());
  EXPECT_NE(result.report.find("breach opaque-count free line"),
            std::string::npos);
}

TEST(ObsDiffTest, BucketListIsStructuralNotGated) {
  // The raw log-bucket list may shift without the summary statistics
  // moving; it is excluded from threshold comparison.
  const std::string a = "hist h count=10 buckets=1:2;3:4\n";
  const std::string b = "hist h count=10 buckets=9:9\n";
  EXPECT_FALSE(DiffExports(a, b, DiffOptions{}).breached());
}

TEST(ObsDiffTest, AttributionOutputRoundTripsThroughDiff) {
  // The explain output is itself a valid obs-diff input: identical runs
  // compare clean, and an injected regression breaches.
  const std::vector<QuerySpan> spans = StormSpans();
  const std::string a = FormatAttribution(Attribute(spans, {}));
  EXPECT_FALSE(DiffExports(a, a, DiffOptions{}).breached());

  std::vector<QuerySpan> worse = spans;
  worse.push_back(worse.front());  // one extra query
  const std::string b = FormatAttribution(Attribute(worse, {}));
  EXPECT_TRUE(DiffExports(a, b, DiffOptions{}).breached());
}

}  // namespace
}  // namespace obs
}  // namespace msprint
