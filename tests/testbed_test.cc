// Tests for the ground-truth testbed: catalog-rate reproduction, phase-
// aware sprinting, timeout/budget plumbing, and run-statistics invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/obs/obs.h"
#include "src/obs/span.h"
#include "src/robust/storm.h"
#include "src/testbed/testbed.h"
#include "tests/sim_compare.h"

namespace msprint {
namespace {

TestbedConfig BaseConfig(WorkloadId id) {
  TestbedConfig config;
  config.mix = QueryMix::Single(id);
  config.policy.mechanism = MechanismId::kDvfs;
  config.policy.timeout_seconds = 60.0;
  config.policy.budget_fraction = 0.4;
  config.policy.refill_seconds = 200.0;
  config.utilization = 0.5;
  config.num_queries = 3000;
  config.warmup_queries = 300;
  config.seed = 101;
  return config;
}

class TestbedRateTest : public ::testing::TestWithParam<WorkloadId> {};

TEST_P(TestbedRateTest, UnsprintedProcessingMatchesCatalogServiceRate) {
  TestbedConfig config = BaseConfig(GetParam());
  config.disable_sprinting = true;
  const RunTrace trace = Testbed::Run(config);
  const auto& spec = WorkloadCatalog::Get().spec(GetParam());
  const double measured_qph =
      kSecondsPerHour / trace.mean_unsprinted_processing_time;
  // Load overhead inflates service times slightly; allow 4%.
  EXPECT_NEAR(measured_qph, spec.sustained_qph_dvfs,
              0.04 * spec.sustained_qph_dvfs)
      << spec.name;
  EXPECT_DOUBLE_EQ(trace.fraction_sprinted, 0.0);
}

TEST_P(TestbedRateTest, FullSprintMatchesCatalogBurstRate) {
  TestbedConfig config = BaseConfig(GetParam());
  config.force_full_sprint = true;
  const RunTrace trace = Testbed::Run(config);
  const auto& spec = WorkloadCatalog::Get().spec(GetParam());
  const double measured_qph = kSecondsPerHour / trace.mean_processing_time;
  EXPECT_NEAR(measured_qph, spec.burst_qph_dvfs, 0.05 * spec.burst_qph_dvfs)
      << spec.name;
  EXPECT_DOUBLE_EQ(trace.fraction_sprinted, 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, TestbedRateTest,
                         ::testing::ValuesIn(AllWorkloads()),
                         [](const auto& info) { return ToString(info.param); });

TEST(TestbedTest, SustainedRateMatchesMixArithmetic) {
  SprintPolicy policy;
  policy.mechanism = MechanismId::kDvfs;
  const double solo_qph =
      Testbed::SustainedRatePerSecond(QueryMix::Single(WorkloadId::kJacobi),
                                      policy) *
      kSecondsPerHour;
  EXPECT_NEAR(solo_qph, 51.0, 1e-9);
  const double mix_qph =
      Testbed::SustainedRatePerSecond(MakeMixOne(), policy) * kSecondsPerHour;
  EXPECT_NEAR(mix_qph, 35.0, 0.5);  // Section 3.4's measured Mix I rate
}

TEST(TestbedTest, SprintedRemainingSecondsWholeRun) {
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kJacobi);
  DvfsMechanism dvfs;
  const double total = 100.0;
  const double sprinted =
      Testbed::SprintedRemainingSeconds(spec, dvfs, 0.0, total);
  // Whole-run sprint must land at total / marginal speedup.
  EXPECT_NEAR(sprinted, total / dvfs.MarginalSpeedup(spec), 0.5);
}

TEST(TestbedTest, SprintedRemainingDecreasesWithProgress) {
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kLeuk);
  DvfsMechanism dvfs;
  double prev = 1e18;
  for (double progress : {0.0, 0.25, 0.5, 0.75, 0.95}) {
    const double remaining =
        Testbed::SprintedRemainingSeconds(spec, dvfs, progress, 100.0);
    EXPECT_LT(remaining, prev);
    prev = remaining;
  }
  EXPECT_DOUBLE_EQ(
      Testbed::SprintedRemainingSeconds(spec, dvfs, 1.0, 100.0), 0.0);
}

TEST(TestbedTest, LateSprintsGainLessOnPhasedWorkloads) {
  // Leuk's sprint-friendly work is front-loaded: sprinting only the second
  // half must yield a smaller speedup on that half than the whole-run
  // (marginal) speedup — Section 3.2's "late timeouts" effect.
  const auto& spec = WorkloadCatalog::Get().spec(WorkloadId::kLeuk);
  DvfsMechanism dvfs;
  const double total = 100.0;
  const double tail_sprinted =
      Testbed::SprintedRemainingSeconds(spec, dvfs, 0.5, total);
  const double tail_speedup = (0.5 * total) / tail_sprinted;
  EXPECT_LT(tail_speedup, dvfs.MarginalSpeedup(spec) * 0.95);
}

TEST(TestbedTest, HigherUtilizationRaisesResponseTime) {
  TestbedConfig low = BaseConfig(WorkloadId::kJacobi);
  low.disable_sprinting = true;
  low.utilization = 0.3;
  TestbedConfig high = low;
  high.utilization = 0.9;
  EXPECT_LT(Testbed::Run(low).mean_response_time,
            Testbed::Run(high).mean_response_time);
}

TEST(TestbedTest, SprintingImprovesResponseTimeUnderLoad) {
  TestbedConfig off = BaseConfig(WorkloadId::kSparkKmeans);
  off.utilization = 0.85;
  off.disable_sprinting = true;
  TestbedConfig on = off;
  on.disable_sprinting = false;
  on.policy.timeout_seconds = 30.0;
  on.policy.budget_fraction = 0.8;
  EXPECT_LT(Testbed::Run(on).mean_response_time,
            Testbed::Run(off).mean_response_time);
}

TEST(TestbedTest, TimestampInvariants) {
  const RunTrace trace = Testbed::Run(BaseConfig(WorkloadId::kBfs));
  for (const auto& q : trace.queries) {
    EXPECT_GE(q.start, q.arrival);
    EXPECT_GT(q.depart, q.start);
    if (q.sprinted) {
      EXPECT_TRUE(q.timed_out);
      EXPECT_GE(q.sprint_begin, q.start);
      EXPECT_GT(q.sprint_seconds, 0.0);
    } else {
      EXPECT_DOUBLE_EQ(q.sprint_seconds, 0.0);
    }
  }
}

TEST(TestbedTest, SprintedFractionRespondsToTimeout) {
  TestbedConfig eager = BaseConfig(WorkloadId::kJacobi);
  eager.policy.timeout_seconds = 5.0;
  eager.utilization = 0.8;
  TestbedConfig lazy = eager;
  lazy.policy.timeout_seconds = 500.0;
  EXPECT_GT(Testbed::Run(eager).fraction_sprinted,
            Testbed::Run(lazy).fraction_sprinted);
}

TEST(TestbedTest, MixRunsContainAllMembers) {
  TestbedConfig config = BaseConfig(WorkloadId::kJacobi);
  config.mix = MakeMixOne();
  const RunTrace trace = Testbed::Run(config);
  size_t jacobi = 0;
  size_t stream = 0;
  for (const auto& q : trace.queries) {
    if (q.workload == WorkloadId::kJacobi) {
      ++jacobi;
    } else if (q.workload == WorkloadId::kSparkStream) {
      ++stream;
    }
  }
  EXPECT_GT(jacobi, trace.queries.size() / 4);
  EXPECT_GT(stream, trace.queries.size() / 4);
  EXPECT_EQ(jacobi + stream, trace.queries.size());
}

TEST(TestbedTest, DeterministicGivenSeed) {
  const TestbedConfig config = BaseConfig(WorkloadId::kKnn);
  const RunTrace a = Testbed::Run(config);
  const RunTrace b = Testbed::Run(config);
  EXPECT_DOUBLE_EQ(a.mean_response_time, b.mean_response_time);
  EXPECT_EQ(a.queries.size(), b.queries.size());
}

TEST(TestbedTest, WarmupShrinksTrace) {
  TestbedConfig config = BaseConfig(WorkloadId::kMem);
  config.num_queries = 1000;
  config.warmup_queries = 400;
  EXPECT_EQ(Testbed::Run(config).queries.size(), 600u);
}

TEST(TestbedTest, InvalidConfigThrows) {
  TestbedConfig config = BaseConfig(WorkloadId::kJacobi);
  config.num_queries = 0;
  EXPECT_THROW(Testbed::Run(config), std::invalid_argument);
  config = BaseConfig(WorkloadId::kJacobi);
  config.utilization = 0.0;
  EXPECT_THROW(Testbed::Run(config), std::invalid_argument);
  config = BaseConfig(WorkloadId::kJacobi);
  config.slots = 0;
  EXPECT_THROW(Testbed::Run(config), std::invalid_argument);
}

TEST(TestbedTest, PercentileResponseTimeHasDefinedEdgeBehavior) {
  // An empty trace reports 0.0 rather than indexing into nothing.
  const RunTrace empty;
  EXPECT_DOUBLE_EQ(empty.PercentileResponseTime(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.PercentileResponseTime(-1.0), 0.0);

  TestbedConfig config = BaseConfig(WorkloadId::kJacobi);
  config.num_queries = 300;
  config.warmup_queries = 30;
  const RunTrace trace = Testbed::Run(config);
  const std::vector<double> times = trace.ResponseTimes();
  ASSERT_FALSE(times.empty());
  const double min = *std::min_element(times.begin(), times.end());
  const double max = *std::max_element(times.begin(), times.end());
  EXPECT_DOUBLE_EQ(trace.PercentileResponseTime(0.0), min);
  EXPECT_DOUBLE_EQ(trace.PercentileResponseTime(1.0), max);
  // Out-of-range fractions clamp instead of reading out of bounds.
  EXPECT_DOUBLE_EQ(trace.PercentileResponseTime(-0.5), min);
  EXPECT_DOUBLE_EQ(trace.PercentileResponseTime(2.0), max);
  // NaN is a caller bug and is rejected loudly, never cast to an index.
  EXPECT_THROW(trace.PercentileResponseTime(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

// A shed attempt never ran, so it has no response time. The hardened side
// of `msprint whatif --storm bench/storms/default.storm --queries 800`
// (the file spells out StormConfig's defaults) sheds about two in five of
// its post-warmup attempts; its quantiles cover the others, the sample
// mean_response_time averages.
TEST(TestbedTest, QuantilesSkipShedAttempts) {
  robust::StormConfig storm;
  storm.queries = 800;
  const RunTrace trace =
      Testbed::Run(robust::MakeStormTestbedConfig(storm, /*hardened=*/true));
  ASSERT_GT(trace.shed_count, 0u);
  const std::vector<double> times = trace.ResponseTimes();
  EXPECT_EQ(times.size(), trace.queries.size() - trace.shed_count);
  StreamingStats mean;
  for (const double t : times) {
    EXPECT_GE(t, 0.0);
    mean.Add(t);
  }
  EXPECT_EQ(Bits(mean.mean()), Bits(trace.mean_response_time));
  EXPECT_EQ(Bits(trace.PercentileResponseTime(0.5)), Bits(Median(times)));
  EXPECT_EQ(Bits(trace.PercentileResponseTime(0.0)),
            Bits(*std::min_element(times.begin(), times.end())));
}

TEST(TestbedTest, CoreScalePlatformSlowerSustainedButSprints) {
  TestbedConfig config = BaseConfig(WorkloadId::kJacobi);
  config.policy.mechanism = MechanismId::kCoreScale;
  config.disable_sprinting = true;
  const RunTrace trace = Testbed::Run(config);
  // Section 3.3: Jacobi takes ~202 s on the 8-core sustained platform.
  EXPECT_NEAR(trace.mean_unsprinted_processing_time, 202.0, 10.0);
}

// ------------------------------- one-slot recursion vs the event loop
//
// A run with one slot that sheds, retries and faults nothing, with no
// metrics, recorder or SLO pipeline attached, runs as a recursion over the
// generated queries; any admission policy routes the same config through
// the event loop instead. A queue cap of num_queries + 1 is never reached,
// so both serve the same queue and must agree bit for bit.

void ExpectSameQueries(const std::vector<Query>& a,
                       const std::vector<Query>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const Query& x = a[i];
    const Query& y = b[i];
    ASSERT_EQ(x.id, y.id) << i;
    ASSERT_EQ(x.workload, y.workload) << i;
    ASSERT_EQ(Bits(x.arrival), Bits(y.arrival)) << i;
    ASSERT_EQ(Bits(x.size), Bits(y.size)) << i;
    ASSERT_EQ(Bits(x.service_time), Bits(y.service_time)) << i;
    ASSERT_EQ(Bits(x.start), Bits(y.start)) << i;
    ASSERT_EQ(Bits(x.depart), Bits(y.depart)) << i;
    ASSERT_EQ(x.timed_out, y.timed_out) << i;
    ASSERT_EQ(x.sprinted, y.sprinted) << i;
    ASSERT_EQ(Bits(x.sprint_begin), Bits(y.sprint_begin)) << i;
    ASSERT_EQ(Bits(x.sprint_seconds), Bits(y.sprint_seconds)) << i;
    ASSERT_EQ(x.shed, y.shed) << i;
    ASSERT_EQ(x.abandoned, y.abandoned) << i;
    ASSERT_EQ(x.attempt, y.attempt) << i;
    ASSERT_EQ(x.request_id, y.request_id) << i;
    ASSERT_EQ(Bits(x.first_arrival), Bits(y.first_arrival)) << i;
  }
}

void ExpectSameRunTrace(const RunTrace& a, const RunTrace& b) {
  ExpectSameQueries(a.queries, b.queries);
  EXPECT_EQ(Bits(a.mean_response_time), Bits(b.mean_response_time));
  EXPECT_EQ(Bits(a.mean_queueing_delay), Bits(b.mean_queueing_delay));
  EXPECT_EQ(Bits(a.mean_processing_time), Bits(b.mean_processing_time));
  EXPECT_EQ(Bits(a.fraction_sprinted), Bits(b.fraction_sprinted));
  EXPECT_EQ(Bits(a.fraction_timed_out), Bits(b.fraction_timed_out));
  EXPECT_EQ(Bits(a.total_sprint_seconds), Bits(b.total_sprint_seconds));
  EXPECT_EQ(Bits(a.makespan), Bits(b.makespan));
  EXPECT_EQ(Bits(a.mean_unsprinted_processing_time),
            Bits(b.mean_unsprinted_processing_time));
  EXPECT_EQ(a.shed_count, b.shed_count);
  EXPECT_EQ(a.abandoned_count, b.abandoned_count);
  EXPECT_EQ(a.retry_count, b.retry_count);
  EXPECT_EQ(a.served_count, b.served_count);
  EXPECT_EQ(a.goodput_count, b.goodput_count);
  EXPECT_EQ(a.badput_count, b.badput_count);
  EXPECT_EQ(Bits(a.goodput_per_second), Bits(b.goodput_per_second));
  EXPECT_EQ(FormatFaultTrace(a.fault_trace), FormatFaultTrace(b.fault_trace));
}

// Summarize reports what Run's trace holds, bit for bit.
void ExpectSummaryOfTrace(const RunSummary& summary, const RunTrace& trace) {
  EXPECT_EQ(Bits(summary.mean_response_time), Bits(trace.mean_response_time));
  EXPECT_EQ(Bits(summary.median_response_time),
            Bits(trace.PercentileResponseTime(0.5)));
  EXPECT_EQ(Bits(summary.fraction_sprinted), Bits(trace.fraction_sprinted));
  EXPECT_EQ(Bits(summary.fraction_timed_out), Bits(trace.fraction_timed_out));
  EXPECT_EQ(Bits(summary.makespan), Bits(trace.makespan));
}

// Runs `recursion` and `loop` (the same run forced through the event loop)
// through Run and then Summarize, each into its own span sink: the traces,
// both summaries and all four span sets must agree bit for bit. Then runs
// both again detached, with no sinks and no session, as every profile grid
// run does: the traces and summaries must equal the attached ones. Returns
// the event loop's trace.
RunTrace ExpectEnginesAgree(TestbedConfig recursion, TestbedConfig loop) {
  obs::SpanCollector recursion_spans;
  obs::SpanCollector loop_spans;
  const obs::Sinks recursion_sinks{&recursion_spans, nullptr};
  const obs::Sinks loop_sinks{&loop_spans, nullptr};
  recursion.sinks = &recursion_sinks;
  loop.sinks = &loop_sinks;

  const RunTrace a = Testbed::Run(recursion);
  RunTrace b = Testbed::Run(loop);
  ExpectSameRunTrace(a, b);
  const std::vector<obs::QuerySpan> spans = recursion_spans.TakeSpans();
  ExpectSameSpans(spans, loop_spans.TakeSpans());

  ExpectSummaryOfTrace(Testbed::Summarize(recursion), a);
  ExpectSummaryOfTrace(Testbed::Summarize(loop), b);
  ExpectSameSpans(spans, recursion_spans.TakeSpans());
  ExpectSameSpans(spans, loop_spans.TakeSpans());

  EXPECT_TRUE(obs::ActiveMetrics() == nullptr &&
              obs::ActiveRecorder() == nullptr &&
              obs::ActiveSpans() == nullptr && obs::ActiveSlo() == nullptr);
  for (TestbedConfig* detached : {&recursion, &loop}) {
    detached->sinks = nullptr;
    const RunTrace& attached = detached == &recursion ? a : b;
    ExpectSameRunTrace(Testbed::Run(*detached), attached);
    ExpectSummaryOfTrace(Testbed::Summarize(*detached), attached);
  }
  return b;
}

// A random one-slot config: every mechanism, one workload or a two-workload
// mix, utilization 0.3-1.3, exponential, Pareto or deterministic arrivals,
// timeouts from immediate to never and budgets from none to unbounded
// (both relative to the mix's mean service time), full-sprint and
// sprint-free profiling runs, the three whatif hooks, warmup on or off.
TestbedConfig RandomOneSlotConfig(Rng& rng) {
  auto pick = [&](size_t n) { return static_cast<size_t>(rng.NextBounded(n)); };
  constexpr MechanismId kMechanisms[] = {
      MechanismId::kDvfs, MechanismId::kCoreScale, MechanismId::kEc2Dvfs,
      MechanismId::kCpuThrottle};
  constexpr DistributionKind kArrivals[] = {DistributionKind::kExponential,
                                            DistributionKind::kPareto,
                                            DistributionKind::kDeterministic};
  constexpr double kTimeouts[] = {0.0, 0.3, 0.8, 1.5, 3.0,
                                  std::numeric_limits<double>::infinity()};
  constexpr double kBudgets[] = {0.0, 0.05, 0.2, 0.8, 1e9};
  constexpr double kToggleScales[] = {1.0, 0.0, 2.5};
  constexpr double kBoosts[] = {1.0, 0.5, 1.5, 3.0};

  const std::vector<WorkloadId>& workloads = AllWorkloads();
  const size_t first = pick(workloads.size());
  TestbedConfig config;
  if (pick(2) == 0) {
    config.mix = QueryMix::Single(workloads[first]);
  } else {
    const size_t second = (first + 1 + pick(workloads.size() - 1)) %
                          workloads.size();
    config.mix = QueryMix::Uniform({workloads[first], workloads[second]},
                                   0.7 + 0.3 * rng.NextDouble());
  }
  config.policy.mechanism = kMechanisms[pick(4)];
  config.policy.throttle_fraction = pick(2) == 0 ? 0.2 : 0.5;
  const double mean_service =
      1.0 / Testbed::SustainedRatePerSecond(config.mix, config.policy);
  config.policy.timeout_seconds = kTimeouts[pick(6)] * mean_service;
  config.policy.budget_fraction = kBudgets[pick(5)];
  config.policy.refill_seconds = (2.0 + 8.0 * rng.NextDouble()) * mean_service;
  config.utilization = 0.3 + rng.NextDouble();
  config.arrival_kind = kArrivals[pick(3)];
  const size_t mode = pick(8);
  config.force_full_sprint = mode == 0;
  config.disable_sprinting = mode == 1;
  config.service_time_scale = pick(2) == 0 ? 1.0 : 0.5 + rng.NextDouble();
  config.toggle_latency_scale = kToggleScales[pick(3)];
  config.sprint_boost = kBoosts[pick(4)];
  config.num_queries = 200 + pick(600);
  config.warmup_queries = pick(2) == 1 ? config.num_queries / 10 : 0;
  config.seed = rng.Next();
  return config;
}

TEST(TestbedSingleSlotOracleTest, RecursionMatchesEventLoopBitForBit) {
  Rng rng(2027);
  size_t queued_sprints = 0;
  size_t midflight_sprints = 0;
  size_t short_queues = 0;  // 1-9 queued: the load factor changes
  size_t long_queues = 0;   // 10 or more: the load factor is capped
  size_t ties = 0;          // a later arrival exactly at a dispatch instant
  for (int k = 0; k < 1000; ++k) {
    const TestbedConfig recursion = RandomOneSlotConfig(rng);
    TestbedConfig loop = recursion;
    loop.admission.policy = robust::AdmissionPolicy::kQueueCap;
    loop.admission.queue_cap = loop.num_queries + 1;

    SCOPED_TRACE(::testing::Message() << "case " << k);
    const RunTrace b = ExpectEnginesAgree(recursion, loop);
    if (HasFailure()) {
      return;
    }
    ASSERT_EQ(b.shed_count, 0u);
    const std::vector<Query>& q = b.queries;
    size_t later = 0;
    for (size_t i = 0; i < q.size(); ++i) {
      if (q[i].sprinted && !recursion.force_full_sprint) {
        ++(q[i].sprint_begin == q[i].start ? queued_sprints
                                           : midflight_sprints);
      }
      later = std::max(later, i + 1);
      while (later < q.size() && q[later].arrival < q[i].start) {
        ++later;
      }
      const size_t queued = later - i - 1;
      short_queues += queued >= 1 && queued <= 9;
      long_queues += queued >= 10;
      ties += later < q.size() && q[later].arrival == q[i].start;
    }
  }
  std::cout << "sprints engaged while queued " << queued_sprints
            << ", mid-flight " << midflight_sprints << "; dispatches with 1-9 "
            << "queued " << short_queues << ", 10 or more " << long_queues
            << "; exact ties " << ties << "\n";
  // The sweep must reach what the recursion's argument is about: both
  // sprint sites, and load factors below and at the cap. It met 86,802
  // queued and 64,275 mid-flight sprints, 91,306 and 154,714 dispatches.
  EXPECT_GT(queued_sprints, 40000u);
  EXPECT_GT(midflight_sprints, 30000u);
  EXPECT_GT(short_queues, 40000u);
  EXPECT_GT(long_queues, 70000u);
}

// Whether an arrival at exactly the dispatch instant is already queued
// depends on the event queue's push order, so the recursion hands such a
// run to the event loop. Here arrivals come exactly 64 s apart and every
// query sprints at its timeout, 128 s after its arrival, with no toggle and
// nothing left to run: each departure lands on an arrival instant, and the
// arrival was pushed before the rescheduled departure, so the event loop
// counts it as queued where "arrivals strictly before" would not.
TEST(TestbedSingleSlotOracleTest, TieHandsRunToEventLoop) {
  // Jacobi alone answers every query in exactly 128 s, so a summary cannot
  // tell how many queries it counted; with SparkStream mixed in, a few
  // finish before their timeout, and a partial report carried across the
  // hand-over would count the first query twice.
  for (const QueryMix& mix :
       {QueryMix::Single(WorkloadId::kJacobi),
        QueryMix::Uniform({WorkloadId::kJacobi, WorkloadId::kSparkStream},
                          1.0)}) {
    TestbedConfig recursion;
    recursion.mix = mix;
    recursion.policy.mechanism = MechanismId::kCoreScale;
    recursion.policy.timeout_seconds = 128.0;
    recursion.policy.budget_fraction = 1e9;
    recursion.arrival_kind = DistributionKind::kDeterministic;
    recursion.toggle_latency_scale = 0.0;
    recursion.sprint_boost = 10.0;
    recursion.num_queries = 400;
    recursion.warmup_queries = 0;
    // The utilization whose interarrival gap is exactly 64 s.
    const double rate =
        Testbed::SustainedRatePerSecond(recursion.mix, recursion.policy);
    double utilization = 1.0 / (64.0 * rate);
    for (int k = 0; k < 32; ++k) {
      utilization = std::nextafter(utilization, 0.0);
    }
    for (int k = 0; k < 64 && 1.0 / (utilization * rate) != 64.0; ++k) {
      utilization = std::nextafter(utilization, 1e9);
    }
    ASSERT_EQ(1.0 / (utilization * rate), 64.0);
    recursion.utilization = utilization;

    TestbedConfig loop = recursion;
    loop.admission.policy = robust::AdmissionPolicy::kQueueCap;
    loop.admission.queue_cap = loop.num_queries + 1;
    const RunTrace b = ExpectEnginesAgree(recursion, loop);

    size_t ties = 0;
    for (size_t i = 0; i + 1 < b.queries.size(); ++i) {
      ties += b.queries[i + 1].arrival == b.queries[i].start &&
              b.queries[i].arrival < b.queries[i].start;
    }
    EXPECT_GT(ties, 300u);
  }
}

// ------------------------------------------------- replaying a draw value
//
// Run and Summarize draw, then replay; replaying Testbed::Draw(config)
// gives the same bits on either engine, with a mix's class column and
// with flash crowds compressing the arrivals.

void ExpectSameSummary(const RunSummary& a, const RunSummary& b) {
  EXPECT_EQ(Bits(a.mean_response_time), Bits(b.mean_response_time));
  EXPECT_EQ(Bits(a.median_response_time), Bits(b.median_response_time));
  EXPECT_EQ(Bits(a.fraction_sprinted), Bits(b.fraction_sprinted));
  EXPECT_EQ(Bits(a.fraction_timed_out), Bits(b.fraction_timed_out));
  EXPECT_EQ(Bits(a.makespan), Bits(b.makespan));
}

TEST(TestbedTest, ReplaysDrawValueBitForBit) {
  TestbedConfig profile_row = BaseConfig(WorkloadId::kJacobi);
  profile_row.utilization = 0.75;
  TestbedConfig mix = profile_row;
  mix.mix = MakeMixOne();
  TestbedConfig crowds = BaseConfig(WorkloadId::kKnn);
  // A crowd over a tenth of the run's expected span.
  const double span =
      static_cast<double>(crowds.num_queries) /
      (crowds.utilization *
       Testbed::SustainedRatePerSecond(crowds.mix, crowds.policy));
  crowds.faults.scheduled_flash_crowds = {{0.2 * span, 0.3 * span}};
  crowds.faults.flash_crowd_intensity = 4.0;
  const robust::StormConfig storm;
  TestbedConfig no_crowds = crowds;
  no_crowds.faults = FaultPlanConfig{};
  ASSERT_NE(Testbed::Draw(crowds).arrival, Testbed::Draw(no_crowds).arrival)
      << "no arrival fell in the crowd window";

  for (const TestbedConfig& config :
       {profile_row, mix, robust::MakeStormTestbedConfig(storm, false),
        robust::MakeStormTestbedConfig(storm, true), crowds}) {
    SCOPED_TRACE(::testing::Message()
                 << config.mix.components().size() << " workloads, retry "
                 << config.retry.enabled << ", crowds "
                 << config.faults.scheduled_flash_crowds.size());
    const SimDraws draws = Testbed::Draw(config);
    EXPECT_EQ(draws.arrival.size(), config.num_queries);
    EXPECT_EQ(draws.klass.empty(), config.mix.components().size() == 1);
    ExpectSameRunTrace(Testbed::Run(config, draws), Testbed::Run(config));
    ExpectSameSummary(Testbed::Summarize(config, draws),
                      Testbed::Summarize(config));
  }

  // Draws that do not fit throw before the run records anything.
  obs::SpanCollector spans;
  const obs::Sinks sinks{&spans, nullptr};
  profile_row.sinks = &sinks;
  mix.sinks = &sinks;
  SimDraws short_column = Testbed::Draw(profile_row);
  short_column.service_time.pop_back();
  SimDraws klass_on_one = Testbed::Draw(profile_row);
  klass_on_one.klass.assign(profile_row.num_queries,
                            static_cast<uint32_t>(WorkloadId::kJacobi));
  SimDraws not_in_mix = Testbed::Draw(mix);
  not_in_mix.klass[7] = static_cast<uint32_t>(WorkloadId::kLeuk);
  SimDraws no_workload = Testbed::Draw(mix);
  no_workload.klass[7] = 1000;
  SimDraws no_klass = Testbed::Draw(mix);
  no_klass.klass.clear();
  for (const auto& [config, draws] :
       {std::pair{&profile_row, &short_column}, {&profile_row, &klass_on_one},
        {&mix, &not_in_mix}, {&mix, &no_workload}, {&mix, &no_klass}}) {
    EXPECT_THROW(Testbed::Run(*config, *draws), std::invalid_argument);
    EXPECT_THROW(Testbed::Summarize(*config, *draws), std::invalid_argument);
  }
  EXPECT_TRUE(spans.TakeSpans().empty());
}

// ------------------------------------------ the phase table's midpoint rule
//
// A run holds each workload's phase speedups in one table and reads each
// remaining stretch of a sprint at the phase that holds the stretch's
// midpoint, clamped to 0.999. The rule it replaced asked the mechanism at
// that clamped midpoint, stretch by stretch; it is kept here as the
// reference, and Testbed::SprintedRemainingSeconds runs a run's code.
double MidpointRuleRemaining(const WorkloadSpec& spec,
                             const SprintMechanism& mechanism,
                             double progress, double sustained_total) {
  progress = std::clamp(progress, 0.0, 1.0);
  double remaining = 0.0;
  double phase_start = 0.0;
  for (const PhaseSpec& phase : spec.phases) {
    const double phase_end = phase_start + phase.work_fraction;
    if (phase_end > progress) {
      const double begin = std::max(phase_start, progress);
      remaining += (phase_end - begin) * sustained_total /
                   mechanism.InstantSpeedup(
                       spec, std::min(0.5 * (begin + phase_end), 0.999));
    }
    phase_start = phase_end;
  }
  return remaining;
}

// `x` and the 64 doubles on either side of it.
void AppendNeighbours(double x, std::vector<double>* out) {
  for (int k = 0; k < 64; ++k) {
    x = std::nextafter(x, -std::numeric_limits<double>::infinity());
  }
  for (int k = 0; k <= 128; ++k) {
    out->push_back(x);
    x = std::nextafter(x, std::numeric_limits<double>::infinity());
  }
}

TEST(TestbedPhaseTableOracleTest, SprintedRemainingMatchesMidpointRule) {
  // Every catalog workload, plus one whose last phase starts past the
  // clamp: no catalog workload has a boundary in (0.999, 1), so only this
  // one tells a clamped midpoint from an unclamped one.
  std::vector<WorkloadSpec> specs;
  for (const WorkloadId id : AllWorkloads()) {
    specs.push_back(WorkloadCatalog::Get().spec(id));
  }
  WorkloadSpec late = WorkloadCatalog::Get().spec(WorkloadId::kLeuk);
  late.phases = {{0.9995, 1.90, 0.90}, {0.0005, 0.25, 0.40}};
  specs.push_back(late);
  std::vector<std::unique_ptr<SprintMechanism>> mechanisms;
  for (const MechanismId id :
       {MechanismId::kDvfs, MechanismId::kCoreScale, MechanismId::kEc2Dvfs,
        MechanismId::kCpuThrottle}) {
    mechanisms.push_back(MakeMechanism(id));
  }

  constexpr size_t kRandomValues = 1000000;
  const size_t pairs = mechanisms.size() * specs.size();
  Rng rng(1907);
  size_t compared = 0;
  for (const auto& mechanism : mechanisms) {
    for (const WorkloadSpec& spec : specs) {
      std::vector<double> progress = {0.0, 1.0};
      AppendNeighbours(0.999, &progress);
      double boundary = 0.0;
      AppendNeighbours(boundary, &progress);
      for (const PhaseSpec& phase : spec.phases) {
        boundary += phase.work_fraction;
        AppendNeighbours(boundary, &progress);
      }
      for (size_t k = 0; k < kRandomValues / pairs; ++k) {
        progress.push_back(rng.NextDouble());
      }
      for (const double p : progress) {
        ASSERT_EQ(Bits(Testbed::SprintedRemainingSeconds(spec, *mechanism, p,
                                                         100.0)),
                  Bits(MidpointRuleRemaining(spec, *mechanism, p, 100.0)))
            << mechanism->Describe() << " / " << spec.name << " ("
            << spec.phases.size() << " phases) at progress " << p;
      }
      compared += progress.size();
    }
  }
  EXPECT_GE(compared, kRandomValues - pairs);
}

}  // namespace
}  // namespace msprint
