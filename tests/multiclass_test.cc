// Tests for query classes in the timeout-aware simulator (the Section 5
// "multiple sprint rates and timeouts" extension, SimConfig::classes).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "src/obs/span.h"
#include "src/sim/queue_simulator.h"
#include "src/sim/tick_simulator.h"

namespace msprint {
namespace {

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

SimConfig TwoClassConfig(const Distribution& fast, const Distribution& slow) {
  SimConfig config;
  config.arrival_rate_per_second = 0.02;
  config.classes = {{1.0, &fast, 30.0, 2.0}, {1.0, &slow, 90.0, 1.5}};
  config.budget_capacity_seconds = 100.0;
  config.budget_refill_seconds = 400.0;
  config.num_queries = 6000;
  config.warmup_queries = 600;
  config.seed = 5;
  return config;
}

void ExpectSameResult(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.response_times.size(), b.response_times.size());
  for (size_t i = 0; i < a.response_times.size(); ++i) {
    ASSERT_EQ(Bits(a.response_times[i]), Bits(b.response_times[i])) << i;
  }
  EXPECT_EQ(Bits(a.mean_response_time), Bits(b.mean_response_time));
  EXPECT_EQ(Bits(a.mean_queueing_delay), Bits(b.mean_queueing_delay));
  EXPECT_EQ(Bits(a.fraction_sprinted), Bits(b.fraction_sprinted));
  EXPECT_EQ(Bits(a.fraction_timed_out), Bits(b.fraction_timed_out));
  EXPECT_EQ(Bits(a.total_sprint_seconds), Bits(b.total_sprint_seconds));
  EXPECT_EQ(Bits(a.makespan), Bits(b.makespan));
  EXPECT_EQ(a.shed_count, b.shed_count);
  ASSERT_EQ(a.per_class.size(), b.per_class.size());
  for (size_t c = 0; c < a.per_class.size(); ++c) {
    const SimClassStats& x = a.per_class[c];
    const SimClassStats& y = b.per_class[c];
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(Bits(x.mean_response_time), Bits(y.mean_response_time));
    EXPECT_EQ(Bits(x.mean_queueing_delay), Bits(y.mean_queueing_delay));
    EXPECT_EQ(Bits(x.fraction_sprinted), Bits(y.fraction_sprinted));
  }
}

void ExpectSameTrace(const std::vector<SimQuery>& a,
                     const std::vector<SimQuery>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i].arrival), Bits(b[i].arrival)) << i;
    ASSERT_EQ(Bits(a[i].service_time), Bits(b[i].service_time)) << i;
    ASSERT_EQ(Bits(a[i].start), Bits(b[i].start)) << i;
    ASSERT_EQ(Bits(a[i].depart), Bits(b[i].depart)) << i;
    ASSERT_EQ(Bits(a[i].sprint_seconds), Bits(b[i].sprint_seconds)) << i;
    ASSERT_EQ(a[i].timed_out, b[i].timed_out) << i;
    ASSERT_EQ(a[i].sprinted, b[i].sprinted) << i;
    ASSERT_EQ(a[i].shed, b[i].shed) << i;
  }
}

void ExpectSameSpans(const std::vector<obs::QuerySpan>& a,
                     const std::vector<obs::QuerySpan>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id);
    ASSERT_EQ(a[i].klass, b[i].klass);
    ASSERT_EQ(a[i].arrival, b[i].arrival);
    ASSERT_EQ(a[i].start, b[i].start);
    ASSERT_EQ(a[i].depart, b[i].depart);
    ASSERT_EQ(a[i].sprint_begin, b[i].sprint_begin);
    ASSERT_EQ(a[i].components, b[i].components);
    ASSERT_EQ(a[i].num_phases, b[i].num_phases);
    ASSERT_EQ(a[i].sprinted, b[i].sprinted);
    ASSERT_EQ(a[i].timed_out, b[i].timed_out);
    ASSERT_EQ(a[i].sprint_aborted, b[i].sprint_aborted);
  }
}

// The one-class oracle: a `classes` list holding one class must replay the
// same values set at top level bit for bit — results, per-query traces and
// spans — because one class draws no class variate.
TEST(MultiClassTest, OneClassReplaysSingleClassBitForBit) {
  const ExponentialDistribution service(1.0 / 40.0);
  std::vector<double> arrivals;
  double t = 0.0;
  for (size_t i = 0; i < 3000; ++i) {
    t += 5.0 + static_cast<double>((i * 37) % 41);
    arrivals.push_back(t);
  }

  obs::SpanCollector single_spans;
  obs::SpanCollector one_spans;
  SimConfig single;
  single.span_sink = &single_spans;
  single.arrival_rate_per_second = 0.02;
  single.service = &service;
  single.sprint_speedup = 1.5;
  single.timeout_seconds = 60.0;
  single.budget_capacity_seconds = 40.0;
  single.budget_refill_seconds = 200.0;
  single.num_queries = 4000;
  single.warmup_queries = 400;

  for (int variant = 0; variant < 2; ++variant) {
    if (variant == 1) {
      // Two slots, a deadline-aware controller reading the class timeout
      // and a recorded arrival trace.
      single.slots = 2;
      single.admission.policy = robust::AdmissionPolicy::kDeadlineAware;
      single.arrival_trace = &arrivals;
    }
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      single.seed = seed;
      SimConfig one = single;
      one.service = nullptr;  // ignored once classes is set
      one.sprint_speedup = 7.0;
      one.timeout_seconds = 1.0;
      one.classes = {{2.5, &service, single.timeout_seconds,
                      single.sprint_speedup}};
      one.span_sink = &one_spans;

      std::vector<SimQuery> single_trace;
      std::vector<SimQuery> one_trace;
      const SimResult a = SimulateQueue(single, &single_trace);
      const SimResult b = SimulateQueue(one, &one_trace);

      SCOPED_TRACE(::testing::Message()
                   << "variant " << variant << " seed " << seed);
      ExpectSameResult(a, b);
      ExpectSameTrace(single_trace, one_trace);
      const std::vector<obs::QuerySpan> spans = one_spans.TakeSpans();
      ExpectSameSpans(single_spans.TakeSpans(), spans);
      EXPECT_EQ(spans.size(), b.response_times.size());
      EXPECT_TRUE(b.per_class.empty());
      EXPECT_GT(b.fraction_sprinted, 0.0);
      if (variant == 1) {
        EXPECT_GT(b.shed_count, 0u);
      }
    }
  }
}

TEST(MultiClassTest, PerClassStatsSeparate) {
  const ExponentialDistribution fast(1.0 / 20.0);
  const ExponentialDistribution slow(1.0 / 80.0);
  const SimResult result = SimulateQueue(TwoClassConfig(fast, slow));
  ASSERT_EQ(result.per_class.size(), 2u);
  const SimClassStats& fast_result = result.per_class[0];
  const SimClassStats& slow_result = result.per_class[1];
  EXPECT_GT(fast_result.completed, 1000u);
  EXPECT_GT(slow_result.completed, 1000u);
  EXPECT_EQ(fast_result.completed + slow_result.completed,
            result.response_times.size());
  // Slow class must see longer response times (bigger service).
  EXPECT_GT(slow_result.mean_response_time,
            fast_result.mean_response_time);
  // The aggregate is the completion-weighted mix of the classes.
  const double mixed = (fast_result.mean_response_time *
                            static_cast<double>(fast_result.completed) +
                        slow_result.mean_response_time *
                            static_cast<double>(slow_result.completed)) /
                       static_cast<double>(result.response_times.size());
  EXPECT_NEAR(mixed, result.mean_response_time,
              1e-9 * result.mean_response_time);
}

TEST(MultiClassTest, ClassTimeoutControlsItsSprinting) {
  const ExponentialDistribution service(1.0 / 50.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.03;
  config.classes = {
      {1.0, &service, 0.0, 1.8},   // sprints immediately
      {1.0, &service, 1e18, 1.8},  // never sprints
  };
  config.budget_capacity_seconds = 1e7;
  config.budget_refill_seconds = 1e3;
  config.num_queries = 4000;
  config.warmup_queries = 400;
  config.seed = 13;
  const SimResult result = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(result.per_class[0].fraction_sprinted, 1.0);
  EXPECT_DOUBLE_EQ(result.per_class[1].fraction_sprinted, 0.0);
}

TEST(MultiClassTest, SharedBudgetCouplesClasses) {
  // With a huge budget both classes sprint freely; with a tiny budget the
  // aggressive class starves the other.
  const ExponentialDistribution service(1.0 / 50.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.03;
  config.classes = {
      {3.0, &service, 0.0, 2.0},   // greedy
      {1.0, &service, 40.0, 2.0},  // patient
  };
  config.num_queries = 6000;
  config.warmup_queries = 600;
  config.seed = 21;

  config.budget_capacity_seconds = 1e7;
  config.budget_refill_seconds = 1e3;
  const SimResult loose = SimulateQueue(config);

  config.budget_capacity_seconds = 5.0;
  config.budget_refill_seconds = 2000.0;
  const SimResult tight = SimulateQueue(config);

  EXPECT_GT(loose.per_class[1].fraction_sprinted,
            tight.per_class[1].fraction_sprinted + 0.2);
}

TEST(MultiClassTest, WeightsControlArrivalShare) {
  const ExponentialDistribution service(1.0 / 30.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.02;
  config.classes = {{3.0, &service, 60.0, 1.5}, {1.0, &service, 60.0, 1.5}};
  config.budget_capacity_seconds = 40.0;
  config.budget_refill_seconds = 200.0;
  config.num_queries = 8000;
  config.seed = 3;
  const SimResult result = SimulateQueue(config);
  const double share = static_cast<double>(result.per_class[0].completed) /
                       static_cast<double>(config.num_queries);
  EXPECT_NEAR(share, 0.75, 0.03);
}

TEST(MultiClassTest, DifferentSpeedupsShowInResponseTimes) {
  const ExponentialDistribution service(1.0 / 60.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.012;
  config.classes = {
      {1.0, &service, 0.0, 3.0},  // boosted
      {1.0, &service, 0.0, 1.1},  // mild
  };
  config.budget_capacity_seconds = 1e7;
  config.budget_refill_seconds = 1e3;
  config.num_queries = 6000;
  config.warmup_queries = 600;
  config.seed = 7;
  const SimResult result = SimulateQueue(config);
  EXPECT_LT(result.per_class[0].mean_response_time,
            result.per_class[1].mean_response_time * 0.75);
}

TEST(MultiClassTest, InvalidConfigsThrow) {
  const ExponentialDistribution service(1.0);
  SimConfig config;
  config.service = &service;
  config.num_queries = 100;

  config.classes = {{1.0, nullptr, 60.0, 1.5}};
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);

  config.classes = {{1.0, &service, 60.0, 1.5}, {0.0, &service, 60.0, 1.5}};
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);

  config.classes = {{1.0, &service, 60.0, 0.0}};
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);

  // The tick oracle models one class only.
  config.classes = {{1.0, &service, 60.0, 1.5}};
  EXPECT_NO_THROW(SimulateQueue(config));
  TickSimConfig tick;
  tick.base = config;
  EXPECT_THROW(SimulateQueueTicked(tick), std::invalid_argument);
}

TEST(MultiClassTest, DeterministicGivenSeed) {
  const ExponentialDistribution service(1.0 / 30.0);
  const SimConfig config = TwoClassConfig(service, service);
  std::vector<SimQuery> trace_a;
  std::vector<SimQuery> trace_b;
  const SimResult a = SimulateQueue(config, &trace_a);
  const SimResult b = SimulateQueue(config, &trace_b);
  ExpectSameResult(a, b);
  ExpectSameTrace(trace_a, trace_b);
}

}  // namespace
}  // namespace msprint
