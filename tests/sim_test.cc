// Tests for the timeout-aware queue simulator: classic queueing-theory
// validation (M/M/1, M/D/1, M/M/k — the paper validates its simulator on
// "classic MMK workloads" with ~5% error), hand-computable sprint
// semantics, budget accounting, conformance between the event-driven
// simulator and the literal Algorithm 1 tick loop, bitwise agreement of the
// single-slot recursion with the event loop and of the mean-only replay
// with the full report, exact sprinting limits, and replay of pre-drawn
// inputs.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/sim/queue_simulator.h"
#include "src/sim/tick_simulator.h"
#include "tests/sim_compare.h"

namespace msprint {
namespace {

// Disables sprinting for baseline queueing tests.
SimConfig NoSprintConfig(const Distribution& service, double arrival_rate,
                         size_t n = 60000) {
  SimConfig config;
  config.arrival_rate_per_second = arrival_rate;
  config.service = &service;
  config.sprint_speedup = 1.0;
  config.timeout_seconds = 1e18;
  config.budget_capacity_seconds = 0.0;
  config.budget_refill_seconds = 1.0;
  config.num_queries = n;
  config.warmup_queries = n / 10;
  config.seed = 7;
  return config;
}

// M/M/1 mean response time: 1 / (mu - lambda).
TEST(QueueTheoryTest, MM1MeanResponseTime) {
  const ExponentialDistribution service(1.0);  // mu = 1
  for (double lambda : {0.3, 0.5, 0.7}) {
    // Higher utilization needs a longer horizon for the run mean to settle.
    const SimConfig config =
        NoSprintConfig(service, lambda, lambda > 0.6 ? 400000 : 60000);
    const SimResult result = SimulateQueue(config);
    const double analytic = 1.0 / (1.0 - lambda);
    EXPECT_NEAR(result.mean_response_time, analytic, 0.05 * analytic)
        << "lambda=" << lambda;
  }
}

// M/D/1 mean waiting time: rho / (2 mu (1 - rho)).
TEST(QueueTheoryTest, MD1MeanQueueingDelay) {
  const DeterministicDistribution service(1.0);
  const double lambda = 0.6;
  const SimConfig config = NoSprintConfig(service, lambda);
  const SimResult result = SimulateQueue(config);
  const double analytic = lambda / (2.0 * (1.0 - lambda));
  EXPECT_NEAR(result.mean_queueing_delay, analytic, 0.05 * analytic);
}

// Timeout 0 on an unbounded budget sprints every query from dispatch:
// M/M/1 at service / speedup, the Pollaczek-Khinchine limit.
TEST(QueueTheoryTest, AlwaysSprintingIsMM1AtSprintedRate) {
  const ExponentialDistribution service(1.0);
  const double speedup = 2.0;
  const double lambda = 1.2;  // rho = 0.6 at the sprinted rate
  SimConfig config = NoSprintConfig(service, lambda);
  config.sprint_speedup = speedup;
  config.timeout_seconds = 0.0;
  config.budget_capacity_seconds = 1e12;
  const SimResult result = SimulateQueue(config);
  const double analytic = 1.0 / (speedup - lambda);
  EXPECT_NEAR(result.mean_response_time, analytic, 0.05 * analytic);
  EXPECT_DOUBLE_EQ(result.fraction_sprinted, 1.0);
}

// M/M/k via Erlang C. The paper's simulator achieved ~5% median error on
// MMK validation; we hold ours to the same bar.
double ErlangCWait(double lambda, double mu, int k) {
  const double a = lambda / mu;  // offered load
  double sum = 0.0;
  double term = 1.0;
  for (int i = 0; i < k; ++i) {
    if (i > 0) {
      term *= a / i;
    }
    sum += term;
  }
  const double last = term * a / k;
  const double p_wait = last / ((1.0 - a / k) * sum + last);
  return p_wait / (k * mu - lambda);
}

TEST(QueueTheoryTest, MM2MeanResponseTime) {
  const ExponentialDistribution service(1.0);
  const double lambda = 1.2;  // rho = 0.6 with k = 2
  SimConfig config = NoSprintConfig(service, lambda);
  config.slots = 2;
  const SimResult result = SimulateQueue(config);
  const double analytic = ErlangCWait(lambda, 1.0, 2) + 1.0;
  EXPECT_NEAR(result.mean_response_time, analytic, 0.05 * analytic);
}

TEST(QueueTheoryTest, MM4MeanResponseTime) {
  const ExponentialDistribution service(1.0);
  const double lambda = 3.0;  // rho = 0.75 with k = 4
  SimConfig config = NoSprintConfig(service, lambda, 80000);
  config.slots = 4;
  const SimResult result = SimulateQueue(config);
  const double analytic = ErlangCWait(lambda, 1.0, 4) + 1.0;
  EXPECT_NEAR(result.mean_response_time, analytic, 0.05 * analytic);
}

// ------------------------------------------------ sprint semantics (exact)

// A single query whose timeout fires mid-execution: Equation 1 finishes the
// remaining work at the sprint speedup.
TEST(SprintSemanticsTest, MidExecutionSprintMatchesEquation1) {
  const DeterministicDistribution service(10.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.001;  // deterministic interarrival 1000s
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 4.0;
  config.budget_capacity_seconds = 1000.0;
  config.budget_refill_seconds = 1000.0;
  config.num_queries = 1;
  config.seed = 1;

  std::vector<SimQuery> trace;
  const SimResult result = SimulateQueue(config, &trace);
  ASSERT_EQ(trace.size(), 1u);
  // Arrival at t=1000, dispatch immediately, timeout at t=1004 with 6 s of
  // work left -> 3 s sprinted. Depart at 1007, response time 7.
  EXPECT_DOUBLE_EQ(trace[0].arrival, 1000.0);
  EXPECT_DOUBLE_EQ(trace[0].start, 1000.0);
  EXPECT_TRUE(trace[0].timed_out);
  EXPECT_TRUE(trace[0].sprinted);
  EXPECT_DOUBLE_EQ(trace[0].depart, 1007.0);
  EXPECT_DOUBLE_EQ(result.mean_response_time, 7.0);
  EXPECT_DOUBLE_EQ(trace[0].sprint_seconds, 3.0);
}

// Two queries: the first sprints mid-flight; the second's timeout fires
// while it waits in the queue, so it sprints from its first instruction.
TEST(SprintSemanticsTest, QueuedTimeoutSprintsWholeExecution) {
  const DeterministicDistribution service(25.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.1;  // arrivals at t=10, 20
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 5.0;
  config.budget_capacity_seconds = 1000.0;
  config.budget_refill_seconds = 1000.0;
  config.num_queries = 2;
  config.seed = 1;

  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  ASSERT_EQ(trace.size(), 2u);
  // Q1: starts at 10, timeout at 15, remaining (35-15)/2 = 10 -> depart 25.
  EXPECT_DOUBLE_EQ(trace[0].depart, 25.0);
  // Q2: arrives 20, timeout at 25 fires exactly at dispatch -> whole
  // execution sprints: depart 25 + 25/2 = 37.5.
  EXPECT_DOUBLE_EQ(trace[1].start, 25.0);
  EXPECT_TRUE(trace[1].sprinted);
  EXPECT_DOUBLE_EQ(trace[1].depart, 37.5);
  EXPECT_DOUBLE_EQ(trace[1].sprint_seconds, 12.5);
}

TEST(SprintSemanticsTest, EmptyBudgetBlocksSprint) {
  const DeterministicDistribution service(10.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.05;  // arrivals at 20, 40
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 2.0;
  // 4 s capacity, negligible refill (well under the budget epsilon over
  // the run): Q1's mid-flight sprint debits exactly 4 s, emptying the
  // bucket; Q2 finds it empty.
  config.budget_capacity_seconds = 4.0;
  config.budget_refill_seconds = 4.0e13;
  config.num_queries = 2;
  config.seed = 1;

  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_TRUE(trace[0].sprinted);
  EXPECT_TRUE(trace[1].timed_out);
  EXPECT_FALSE(trace[1].sprinted);
  // Q2 runs at the sustained rate: depart 40 + 10.
  EXPECT_DOUBLE_EQ(trace[1].depart, 50.0);
}

TEST(SprintSemanticsTest, ZeroTimeoutSprintsEveryQuery) {
  const DeterministicDistribution service(10.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.01;
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 0.0;
  config.budget_capacity_seconds = 1e9;
  config.budget_refill_seconds = 10.0;
  config.num_queries = 50;
  config.seed = 1;

  const SimResult result = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(result.fraction_sprinted, 1.0);
  EXPECT_DOUBLE_EQ(result.fraction_timed_out, 1.0);
  // Every execution takes service/speedup = 5 s with no queueing.
  EXPECT_DOUBLE_EQ(result.mean_response_time, 5.0);
}

TEST(SprintSemanticsTest, InfiniteTimeoutNeverSprints) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.5, 5000);
  config.sprint_speedup = 5.0;  // irrelevant: timeout never fires
  const SimResult result = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(result.fraction_sprinted, 0.0);
  EXPECT_DOUBLE_EQ(result.fraction_timed_out, 0.0);
  EXPECT_DOUBLE_EQ(result.total_sprint_seconds, 0.0);
}

TEST(SprintSemanticsTest, SprintingReducesResponseTime) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.8, 40000);
  const double baseline = SimulateQueue(config).mean_response_time;
  config.timeout_seconds = 2.0;
  config.sprint_speedup = 2.0;
  config.budget_capacity_seconds = 50.0;
  config.budget_refill_seconds = 100.0;
  const double sprinted = SimulateQueue(config).mean_response_time;
  EXPECT_LT(sprinted, baseline);
}

TEST(SprintSemanticsTest, BiggerBudgetHelpsMore) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.85, 40000);
  config.timeout_seconds = 3.0;
  config.sprint_speedup = 2.0;
  config.budget_refill_seconds = 100.0;
  config.budget_capacity_seconds = 5.0;
  const double tight = SimulateQueue(config).mean_response_time;
  config.budget_capacity_seconds = 80.0;
  const double loose = SimulateQueue(config).mean_response_time;
  EXPECT_LT(loose, tight);
}

TEST(SprintSemanticsTest, SlowdownSpeedupAllowed) {
  // Effective rates below the service rate are admissible (Equation 2's
  // adjustment can be negative); a "sprint" can then hurt.
  const DeterministicDistribution service(10.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.001;
  config.arrival_kind = DistributionKind::kDeterministic;
  config.service = &service;
  config.sprint_speedup = 0.5;
  config.timeout_seconds = 0.0;
  config.budget_capacity_seconds = 1e6;
  config.budget_refill_seconds = 1e6;
  config.num_queries = 1;
  config.seed = 1;
  const SimResult result = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(result.mean_response_time, 20.0);
}

// --------------------------------------------------------- bookkeeping

TEST(SimBookkeepingTest, WarmupExcludedFromStats) {
  const DeterministicDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.5, 100);
  config.arrival_kind = DistributionKind::kDeterministic;
  config.warmup_queries = 90;
  const SimResult result = SimulateQueue(config);
  EXPECT_EQ(result.response_times.size(), 10u);
}

TEST(SimBookkeepingTest, ResultPercentilesMatchVector) {
  const ExponentialDistribution service(1.0);
  const SimConfig config = NoSprintConfig(service, 0.5, 5000);
  const SimResult result = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(result.MedianResponseTime(),
                   Median(result.response_times));
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(0.99),
                   Quantile(result.response_times, 0.99));
}

TEST(SimBookkeepingTest, PercentileHasDefinedEdgeBehavior) {
  const SimResult empty;
  EXPECT_DOUBLE_EQ(empty.PercentileResponseTime(0.5), 0.0);

  SimResult result;
  result.response_times = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(0.0), 1.0);
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(1.0), 3.0);
  // Out-of-range fractions clamp; NaN is rejected, never cast to an index.
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(-2.0), 1.0);
  EXPECT_DOUBLE_EQ(result.PercentileResponseTime(5.0), 3.0);
  EXPECT_THROW(result.PercentileResponseTime(
                   std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(SimBookkeepingTest, FifoOrderPreserved) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.9, 2000);
  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i].start, trace[i - 1].start);
  }
}

TEST(SimBookkeepingTest, InvalidConfigThrows) {
  const ExponentialDistribution service(1.0);
  SimConfig config = NoSprintConfig(service, 0.5);
  config.service = nullptr;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
  config = NoSprintConfig(service, 0.5);
  config.num_queries = 0;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
  config = NoSprintConfig(service, 0.5);
  config.sprint_speedup = 0.0;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
  config = NoSprintConfig(service, 0.5);
  config.slots = 0;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
}

TEST(SimBookkeepingTest, DeterministicAcrossRuns) {
  const ExponentialDistribution service(1.0);
  const SimConfig config = NoSprintConfig(service, 0.7, 3000);
  const SimResult a = SimulateQueue(config);
  const SimResult b = SimulateQueue(config);
  EXPECT_DOUBLE_EQ(a.mean_response_time, b.mean_response_time);
}

// ------------------------------------------------------- trace replay

TEST(TraceReplayTest, RecordedArrivalsHonoredExactly) {
  const DeterministicDistribution service(5.0);
  const std::vector<double> recorded = {3.0, 7.0, 30.0, 31.0};
  SimConfig config = NoSprintConfig(service, 1.0, recorded.size());
  config.arrival_trace = &recorded;
  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  ASSERT_EQ(trace.size(), recorded.size());
  for (size_t i = 0; i < recorded.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace[i].arrival, recorded[i]);
  }
  // Hand-check the queueing: q2 arrives at 7 while q1 (3..8) runs.
  EXPECT_DOUBLE_EQ(trace[1].start, 8.0);
  EXPECT_DOUBLE_EQ(trace[2].start, 30.0);
  EXPECT_DOUBLE_EQ(trace[3].start, 35.0);
}

TEST(TraceReplayTest, NumQueriesClampedToTraceLength) {
  const DeterministicDistribution service(1.0);
  const std::vector<double> recorded = {1.0, 2.0, 3.0};
  SimConfig config = NoSprintConfig(service, 1.0, 100);
  config.arrival_trace = &recorded;
  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  EXPECT_EQ(trace.size(), 3u);
}

TEST(TraceReplayTest, SprintingWorksOnReplayedTrace) {
  const DeterministicDistribution service(10.0);
  const std::vector<double> recorded = {100.0};
  SimConfig config;
  config.service = &service;
  config.arrival_trace = &recorded;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 4.0;
  config.budget_capacity_seconds = 100.0;
  config.budget_refill_seconds = 100.0;
  config.num_queries = 1;
  config.seed = 1;
  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  // Same Equation 1 arithmetic as the sampled-arrival case.
  EXPECT_DOUBLE_EQ(trace[0].depart, 107.0);
}

TEST(TraceReplayTest, InvalidTracesThrow) {
  const DeterministicDistribution service(1.0);
  const std::vector<double> empty;
  SimConfig config = NoSprintConfig(service, 1.0, 10);
  config.arrival_trace = &empty;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);

  const std::vector<double> descending = {5.0, 4.0};
  config = NoSprintConfig(service, 1.0, 10);
  config.arrival_trace = &descending;
  EXPECT_THROW(SimulateQueue(config), std::invalid_argument);
}

// --------------------------------------- tick-loop conformance (Alg. 1)

struct ConformanceCase {
  double arrival_rate;
  double timeout;
  double speedup;
  double budget;
  uint64_t seed;
};

class TickConformanceTest
    : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(TickConformanceTest, EventSimMatchesTickSim) {
  const ConformanceCase param = GetParam();
  const ExponentialDistribution service(1.0 / 20.0);  // mean 20 s

  SimConfig config;
  config.arrival_rate_per_second = param.arrival_rate;
  config.service = &service;
  config.sprint_speedup = param.speedup;
  config.timeout_seconds = param.timeout;
  config.budget_capacity_seconds = param.budget;
  config.budget_refill_seconds = 200.0;
  config.num_queries = 800;
  config.seed = param.seed;

  const SimResult event_result = SimulateQueue(config);

  TickSimConfig tick_config;
  tick_config.base = config;
  tick_config.tick_seconds = 1e-3;
  const SimResult tick_result = SimulateQueueTicked(tick_config);

  // Identical inputs; the only divergence is millisecond quantization.
  EXPECT_NEAR(tick_result.mean_response_time, event_result.mean_response_time,
              0.01 * event_result.mean_response_time + 0.01);
  EXPECT_NEAR(tick_result.fraction_sprinted, event_result.fraction_sprinted,
              0.02);
  EXPECT_NEAR(tick_result.fraction_timed_out, event_result.fraction_timed_out,
              0.02);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TickConformanceTest,
    ::testing::Values(ConformanceCase{0.02, 30.0, 1.5, 40.0, 11},
                      ConformanceCase{0.04, 15.0, 2.0, 20.0, 12},
                      ConformanceCase{0.01, 60.0, 1.2, 80.0, 13},
                      ConformanceCase{0.045, 5.0, 3.0, 10.0, 14},
                      ConformanceCase{0.03, 0.0, 2.0, 200.0, 15}));

// ------------------------------------ single-slot recursion vs event loop
//
// One slot with admission off runs as a Lindley recursion; any admission
// policy routes the same config through the event loop instead. A queue
// cap of num_queries + 1 is never reached, so both engines serve the same
// queue and must agree bit for bit.

// Mean-10 s services of every shape the oracle sweeps.
std::vector<std::unique_ptr<Distribution>> OracleServices() {
  std::vector<std::unique_ptr<Distribution>> services;
  for (DistributionKind kind :
       {DistributionKind::kDeterministic, DistributionKind::kExponential,
        DistributionKind::kLognormal, DistributionKind::kPareto}) {
    services.push_back(MakeDistribution(kind, 10.0));
  }
  return services;
}

// Whole-second timestamps 0-20 s apart: repeated timestamps, and exact
// arrival = departure ties against whole-second service times.
std::vector<double> TiedArrivalTrace(size_t n) {
  Rng rng(4242);
  std::vector<double> trace;
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    t += static_cast<double>(rng.NextBounded(21));
    trace.push_back(t);
  }
  return trace;
}

// A random one-slot config: each service and arrival shape (exponential,
// Pareto, deterministic or `trace`), utilization 0.3-1.3 (often exactly
// 1.0 or 1.25, where deterministic arrivals tie departures), timeouts from
// immediate to never, budgets from none to unbounded, speedups 0.5-3, one
// or two classes, warmup on or off.
SimConfig RandomSingleSlotConfig(
    Rng& rng, const std::vector<std::unique_ptr<Distribution>>& services,
    const std::vector<double>& trace) {
  auto pick = [&](size_t n) { return static_cast<size_t>(rng.NextBounded(n)); };
  constexpr double kTimeouts[] = {0.0, 5.0, 10.0, 20.0, 1e18};
  constexpr double kBudgets[] = {0.0, 5.0, 40.0, 1e12};
  constexpr double kTiedUtilizations[] = {1.0, 1.25};

  SimConfig config;
  const double utilization = pick(2) == 0 ? kTiedUtilizations[pick(2)]
                                          : 0.3 + rng.NextDouble();
  config.arrival_rate_per_second = utilization / 10.0;
  constexpr DistributionKind kArrivals[] = {DistributionKind::kExponential,
                                            DistributionKind::kPareto,
                                            DistributionKind::kDeterministic};
  const size_t arrivals = pick(4);
  if (arrivals == 3) {
    config.arrival_trace = &trace;
  } else {
    config.arrival_kind = kArrivals[arrivals];
  }
  config.service = services[pick(services.size())].get();
  config.timeout_seconds = kTimeouts[pick(5)];
  config.sprint_speedup = 0.5 + 2.5 * rng.NextDouble();
  config.budget_capacity_seconds = kBudgets[pick(4)];
  config.budget_refill_seconds = 100.0;
  if (pick(2) == 1) {
    config.classes = {
        {1.0 + rng.NextDouble(), config.service, config.timeout_seconds,
         config.sprint_speedup},
        {1.0, services[pick(services.size())].get(), kTimeouts[pick(5)],
         0.5 + 2.5 * rng.NextDouble()}};
  }
  config.num_queries = 200 + pick(800);
  config.warmup_queries = pick(2) == 1 ? config.num_queries / 10 : 0;
  config.seed = rng.Next();
  return config;
}

TEST(SingleSlotOracleTest, RecursionMatchesEventLoopBitForBit) {
  const auto services = OracleServices();
  const std::vector<double> trace = TiedArrivalTrace(1000);
  Rng rng(2026);
  size_t ties = 0;
  size_t sprinted = 0;
  for (int k = 0; k < 3000; ++k) {
    obs::SpanCollector recursion_spans;
    obs::SpanCollector loop_spans;
    SimConfig recursion = RandomSingleSlotConfig(rng, services, trace);
    recursion.span_sink = &recursion_spans;
    SimConfig loop = recursion;
    loop.admission.policy = robust::AdmissionPolicy::kQueueCap;
    loop.admission.queue_cap = loop.num_queries + 1;
    loop.span_sink = &loop_spans;

    std::vector<SimQuery> recursion_trace;
    std::vector<SimQuery> loop_trace;
    const SimResult a = SimulateQueue(recursion, &recursion_trace);
    const SimResult b = SimulateQueue(loop, &loop_trace);

    SCOPED_TRACE(::testing::Message() << "case " << k);
    ExpectSameResult(a, b);
    ExpectSameTrace(recursion_trace, loop_trace);
    ExpectSameSpans(recursion_spans.TakeSpans(), loop_spans.TakeSpans());
    if (HasFailure()) {
      return;
    }
    EXPECT_EQ(b.shed_count, 0u);
    for (size_t i = 0; i < loop_trace.size(); ++i) {
      ties += i > 0 && loop_trace[i].arrival == loop_trace[i - 1].depart;
      sprinted += loop_trace[i].sprinted;
    }
  }
  // The sweep must reach the cases the recursion's ordering argument is
  // about: arrivals exactly at the previous departure, and sprints.
  EXPECT_GT(ties, 10000u);
  EXPECT_GT(sprinted, 100000u);
}

// ------------------------------------------ mean-only replay vs full report
//
// SimulateQueueMean replays the recursion into the mean alone and routes
// every other config through SimulateQueue. Over the recursion oracle's
// configs, and over event-loop variants of each (a queue cap that sheds,
// two to four slots), it must return the full report's mean bit for bit
// and move every counter by the same amount.

// Runs `simulate` with a fresh registry attached and returns its value
// and the registry's export.
template <typename Simulate>
std::pair<double, std::string> WithMetrics(Simulate simulate) {
  obs::MetricsRegistry metrics;
  double value = 0.0;
  {
    obs::ObsSession session(&metrics, nullptr);
    value = simulate();
  }
  return {value, metrics.Snapshot().ToText()};
}

TEST(MeanOnlyOracleTest, MeanMatchesFullReportBitForBit) {
  const auto services = OracleServices();
  const std::vector<double> trace = TiedArrivalTrace(1000);
  Rng rng(2026);  // SingleSlotOracleTest's configs
  size_t shed = 0;
  for (int k = 0; k < 3000; ++k) {
    const SimConfig recursion = RandomSingleSlotConfig(rng, services, trace);
    SimConfig capped = recursion;
    capped.admission.policy = robust::AdmissionPolicy::kQueueCap;
    capped.admission.queue_cap = 1 + k % 8;
    SimConfig slots = recursion;
    slots.slots = 2 + k % 3;
    const SimDraws draws = DrawSimQueries(recursion);
    const SimConfig* const configs[] = {&recursion, &capped, &slots};
    for (const SimConfig* config : configs) {
      SimResult full;
      const auto [full_mean, full_counters] = WithMetrics([&] {
        full = SimulateQueue(*config, draws);
        return full.mean_response_time;
      });
      const auto [mean, counters] =
          WithMetrics([&] { return SimulateQueueMean(*config, draws); });
      SCOPED_TRACE(::testing::Message()
                   << "case " << k << " slots " << config->slots
                   << " cap " << config->admission.Enabled());
      ASSERT_EQ(Bits(mean), Bits(full_mean));
      ASSERT_EQ(counters, full_counters);
      shed += full.shed_count;
    }
  }
  EXPECT_GT(shed, 10000u);  // the caps reach the shedding path
}

// A span sink routes the mean through the full report, so the spans are
// recorded exactly as SimulateQueue records them.
TEST(MeanOnlyOracleTest, SpanSinkStillRecords) {
  const ExponentialDistribution service(0.1);
  SimConfig config = NoSprintConfig(service, 0.07, 500);
  config.timeout_seconds = 5.0;
  config.budget_capacity_seconds = 40.0;
  config.sprint_speedup = 1.5;
  const SimDraws draws = DrawSimQueries(config);
  obs::SpanCollector full_spans;
  obs::SpanCollector mean_spans;
  config.span_sink = &full_spans;
  const double full = SimulateQueue(config, draws).mean_response_time;
  config.span_sink = &mean_spans;
  EXPECT_EQ(Bits(SimulateQueueMean(config, draws)), Bits(full));
  const std::vector<obs::QuerySpan> spans = mean_spans.TakeSpans();
  EXPECT_EQ(spans.size(), 450u);
  ExpectSameSpans(spans, full_spans.TakeSpans());
}

// ------------------------------------------------ exact sprinting limits

std::vector<SimQuery> TraceOf(const SimConfig& config) {
  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  return trace;
}

void ExpectSameSchedule(const std::vector<SimQuery>& a,
                        const std::vector<SimQuery>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(Bits(a[i].start), Bits(b[i].start)) << i;
    ASSERT_EQ(Bits(a[i].depart), Bits(b[i].depart)) << i;
  }
}

// Budget 0 never sprints: at any timeout and speedup, every query starts
// and departs exactly as in a run whose timeout never fires.
TEST(SprintLimitTest, ZeroBudgetMatchesNeverSprinting) {
  const auto services = OracleServices();
  const std::vector<double> trace = TiedArrivalTrace(1000);
  Rng rng(11);
  for (int k = 0; k < 400; ++k) {
    SimConfig config = RandomSingleSlotConfig(rng, services, trace);
    config.classes.clear();
    config.slots = 1 + static_cast<int>(rng.NextBounded(2));
    config.budget_capacity_seconds = 0.0;
    SimConfig never = config;
    never.timeout_seconds = 1e18;
    SCOPED_TRACE(::testing::Message() << "case " << k);
    ExpectSameSchedule(TraceOf(config), TraceOf(never));
    if (HasFailure()) {
      return;
    }
  }
}

// Timeout 0 with an unbounded budget sprints every whole execution: at
// speedup 2 every query starts and departs exactly as in an unsprinted run
// whose service times are halved, because x / 2 and x * 0.5 are the same
// double.
TEST(SprintLimitTest, ZeroTimeoutMatchesHalvedService) {
  const auto services = OracleServices();
  const std::vector<double> trace = TiedArrivalTrace(1000);
  Rng rng(12);
  for (int k = 0; k < 400; ++k) {
    SimConfig config = RandomSingleSlotConfig(rng, services, trace);
    config.classes.clear();
    config.slots = 1 + static_cast<int>(rng.NextBounded(2));
    config.timeout_seconds = 0.0;
    config.budget_capacity_seconds = 1e12;
    config.sprint_speedup = 2.0;
    SimConfig halved = config;
    halved.timeout_seconds = 1e18;
    halved.service_time_scale = 0.5;
    SCOPED_TRACE(::testing::Message() << "case " << k);
    const std::vector<SimQuery> sprinted = TraceOf(config);
    ExpectSameSchedule(sprinted, TraceOf(halved));
    if (HasFailure()) {
      return;
    }
    for (const SimQuery& q : sprinted) {
      ASSERT_TRUE(q.sprinted);
    }
  }
}

// ------------------------------------------------------ draws and replay

// Draws do not depend on speedups, timeouts, the budget or slots: one
// draw replays bit for bit under any of them.
TEST(SimDrawsTest, ReplayMatchesFreshDraws) {
  const auto services = OracleServices();
  const std::vector<double> trace = TiedArrivalTrace(1000);
  Rng rng(13);
  for (int k = 0; k < 200; ++k) {
    const SimConfig base = RandomSingleSlotConfig(rng, services, trace);
    const SimDraws draws = DrawSimQueries(base);
    SimConfig varied = base;
    varied.sprint_speedup = 0.5 + 2.5 * rng.NextDouble();
    varied.timeout_seconds = 30.0 * rng.NextDouble();
    varied.budget_capacity_seconds = 60.0 * rng.NextDouble();
    varied.slots = 1 + static_cast<int>(rng.NextBounded(3));
    for (SimClass& klass : varied.classes) {
      klass.sprint_speedup = varied.sprint_speedup;
      klass.timeout_seconds = varied.timeout_seconds;
    }
    const SimConfig* const configs[] = {&base, &varied};
    for (const SimConfig* config : configs) {
      std::vector<SimQuery> fresh_trace;
      std::vector<SimQuery> replay_trace;
      const SimResult fresh = SimulateQueue(*config, &fresh_trace);
      const SimResult replay = SimulateQueue(*config, draws, &replay_trace);
      SCOPED_TRACE(::testing::Message() << "case " << k);
      ExpectSameResult(fresh, replay);
      ExpectSameTrace(fresh_trace, replay_trace);
      if (HasFailure()) {
        return;
      }
    }
  }
}

TEST(SimDrawsTest, MisshapenDrawsThrow) {
  const ExponentialDistribution service(0.1);
  SimConfig config = NoSprintConfig(service, 0.05, 100);
  const SimDraws draws = DrawSimQueries(config);
  EXPECT_NO_THROW(SimulateQueue(config, draws));

  SimConfig shorter = config;
  shorter.num_queries = 99;
  EXPECT_THROW(SimulateQueue(shorter, draws), std::invalid_argument);
  EXPECT_THROW(SimulateQueueMean(shorter, draws), std::invalid_argument);

  SimDraws bad = draws;
  bad.service_time.pop_back();
  EXPECT_THROW(SimulateQueue(config, bad), std::invalid_argument);
  EXPECT_THROW(SimulateQueueMean(config, bad), std::invalid_argument);
  bad = draws;
  bad.klass.assign(100, 0);  // a class column for a one-class config
  EXPECT_THROW(SimulateQueue(config, bad), std::invalid_argument);
  EXPECT_THROW(SimulateQueueMean(config, bad), std::invalid_argument);

  SimConfig two = config;
  two.classes = {{1.0, &service, 10.0, 1.5}, {1.0, &service, 20.0, 2.0}};
  EXPECT_THROW(SimulateQueue(two, draws), std::invalid_argument);
  EXPECT_THROW(SimulateQueueMean(two, draws), std::invalid_argument);
  bad = DrawSimQueries(two);
  EXPECT_NO_THROW(SimulateQueue(two, bad));
  EXPECT_NO_THROW(SimulateQueueMean(two, bad));
  bad.klass[7] = 2;  // no such class
  EXPECT_THROW(SimulateQueue(two, bad), std::invalid_argument);
  EXPECT_THROW(SimulateQueueMean(two, bad), std::invalid_argument);

  // The mean-only replay validates the admission config even when
  // admission is off, as SimulateQueue does.
  SimConfig invalid_admission = config;
  invalid_admission.admission.service_ewma_alpha = 0.0;
  EXPECT_THROW(SimulateQueue(invalid_admission, draws), std::invalid_argument);
  EXPECT_THROW(SimulateQueueMean(invalid_admission, draws),
               std::invalid_argument);
}

}  // namespace
}  // namespace msprint
