// Property-based tests: structural invariants that must hold across
// parameter sweeps, checked with parameterized gtest suites.
//
//  * Lindley recursion: with sprinting disabled, the simulator's waiting
//    times must satisfy W_{n+1} = max(0, W_n + S_n - A_{n+1}) exactly.
//  * Response-time monotonicity in utilization, budget and sprint rate.
//  * Conservation: every arrival departs exactly once, FIFO order holds,
//    and sprint-seconds accounting matches per-query sums.
//  * Mechanism curves: instantaneous speedups stay within physical bounds
//    for every (mechanism, workload, progress) triple.
//  * Quantile selection: the order statistics Quantile selects equal the
//    ones a full sort reads, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <tuple>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/sim/queue_simulator.h"
#include "src/sprint/mechanism.h"
#include "src/testbed/testbed.h"

namespace msprint {
namespace {

// ------------------------------------------------------ Lindley recursion

class LindleyTest : public ::testing::TestWithParam<
                        std::tuple<double, DistributionKind, uint64_t>> {};

TEST_P(LindleyTest, WaitingTimesFollowRecursionWithoutSprinting) {
  const auto [utilization, arrival_kind, seed] = GetParam();
  const ExponentialDistribution service(1.0 / 25.0);
  SimConfig config;
  config.arrival_rate_per_second = utilization / 25.0;
  config.arrival_kind = arrival_kind;
  config.service = &service;
  config.sprint_speedup = 1.0;
  config.timeout_seconds = 1e18;
  config.budget_capacity_seconds = 0.0;
  config.budget_refill_seconds = 1.0;
  config.num_queries = 3000;
  config.seed = seed;

  std::vector<SimQuery> trace;
  SimulateQueue(config, &trace);
  for (size_t i = 1; i < trace.size(); ++i) {
    const double w_prev = trace[i - 1].start - trace[i - 1].arrival;
    const double expected = std::max(
        0.0, w_prev + trace[i - 1].service_time -
                 (trace[i].arrival - trace[i - 1].arrival));
    const double actual = trace[i].start - trace[i].arrival;
    ASSERT_NEAR(actual, expected, 1e-9) << "query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LindleyTest,
    ::testing::Combine(::testing::Values(0.3, 0.6, 0.9),
                       ::testing::Values(DistributionKind::kExponential,
                                         DistributionKind::kPareto,
                                         DistributionKind::kDeterministic),
                       ::testing::Values(17u, 71u)));

// -------------------------------------------------------- conservation

class ConservationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConservationTest, EveryQueryAccountedFor) {
  const LognormalDistribution service(30.0, 0.4);
  SimConfig config;
  config.arrival_rate_per_second = 0.025;
  config.service = &service;
  config.sprint_speedup = 1.7;
  config.timeout_seconds = 45.0;
  config.budget_capacity_seconds = 60.0;
  config.budget_refill_seconds = 300.0;
  config.num_queries = 4000;
  config.seed = GetParam();

  std::vector<SimQuery> trace;
  const SimResult result = SimulateQueue(config, &trace);
  ASSERT_EQ(trace.size(), config.num_queries);
  double sprint_sum = 0.0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const SimQuery& q = trace[i];
    ASSERT_GE(q.start, q.arrival);
    ASSERT_GT(q.depart, q.start);
    if (q.sprinted) {
      ASSERT_TRUE(q.timed_out);
      ASSERT_GT(q.sprint_seconds, 0.0);
    } else {
      ASSERT_DOUBLE_EQ(q.sprint_seconds, 0.0);
      // Unsprinted queries take exactly their service time.
      ASSERT_NEAR(q.depart - q.start, q.service_time, 1e-9);
    }
    if (i > 0) {
      ASSERT_GE(q.start, trace[i - 1].start);  // FIFO dispatch order
    }
    sprint_sum += q.sprint_seconds;
  }
  EXPECT_NEAR(sprint_sum, result.total_sprint_seconds, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --------------------------------------------------------- monotonicity

TEST(MonotonicityTest, ResponseTimeRisesWithUtilization) {
  const ExponentialDistribution service(1.0 / 20.0);
  double previous = 0.0;
  for (double utilization : {0.2, 0.4, 0.6, 0.8}) {
    SimConfig config;
    config.arrival_rate_per_second = utilization / 20.0;
    config.service = &service;
    config.sprint_speedup = 1.5;
    config.timeout_seconds = 30.0;
    config.budget_capacity_seconds = 40.0;
    config.budget_refill_seconds = 200.0;
    config.num_queries = 40000;
    config.warmup_queries = 4000;
    config.seed = 3;
    const double rt = SimulateQueue(config).mean_response_time;
    EXPECT_GT(rt, previous) << "utilization " << utilization;
    previous = rt;
  }
}

TEST(MonotonicityTest, ResponseTimeFallsWithSprintRate) {
  const ExponentialDistribution service(1.0 / 20.0);
  double previous = 1e18;
  for (double speedup : {1.0, 1.3, 1.7, 2.5}) {
    SimConfig config;
    config.arrival_rate_per_second = 0.04;  // util 0.8
    config.service = &service;
    config.sprint_speedup = speedup;
    config.timeout_seconds = 10.0;
    config.budget_capacity_seconds = 200.0;
    config.budget_refill_seconds = 250.0;
    config.num_queries = 40000;
    config.warmup_queries = 4000;
    config.seed = 5;
    const double rt = SimulateQueue(config).mean_response_time;
    EXPECT_LT(rt, previous + 1e-9) << "speedup " << speedup;
    previous = rt;
  }
}

TEST(MonotonicityTest, TestbedResponseRisesWithUtilization) {
  double previous = 0.0;
  for (double utilization : {0.3, 0.6, 0.9}) {
    TestbedConfig config;
    config.mix = QueryMix::Single(WorkloadId::kKnn);
    config.policy.mechanism = MechanismId::kDvfs;
    config.utilization = utilization;
    config.num_queries = 6000;
    config.warmup_queries = 600;
    config.seed = 11;
    const double rt = Testbed::Run(config).mean_response_time;
    EXPECT_GT(rt, previous);
    previous = rt;
  }
}

// ---------------------------------------------------- mechanism bounds

class SpeedupBoundsTest
    : public ::testing::TestWithParam<std::tuple<MechanismId, WorkloadId>> {};

TEST_P(SpeedupBoundsTest, InstantSpeedupWithinPhysicalBounds) {
  const auto [mech_id, wl_id] = GetParam();
  const auto mechanism = MakeMechanism(mech_id);
  const auto& spec = WorkloadCatalog::Get().spec(wl_id);
  for (int i = 0; i <= 100; ++i) {
    const double tau = i / 100.0 * 0.999;
    const double speedup = mechanism->InstantSpeedup(spec, tau);
    ASSERT_GE(speedup, 1.0 - 1e-9) << tau;
    // No mechanism more than triples throughput mid-burst on this
    // hardware catalog (the largest marginal is SparkStream's 2.57X;
    // phase peaks may exceed it but stay physical).
    ASSERT_LE(speedup, 6.0) << tau;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, SpeedupBoundsTest,
    ::testing::Combine(::testing::Values(MechanismId::kDvfs,
                                         MechanismId::kCoreScale,
                                         MechanismId::kEc2Dvfs,
                                         MechanismId::kCpuThrottle),
                       ::testing::ValuesIn(AllWorkloads())),
    [](const auto& info) {
      return ToString(std::get<0>(info.param)) + "_" +
             ToString(std::get<1>(info.param));
    });

// ----------------------------------------------- budget feasibility sweep

class BudgetSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(BudgetSweepTest, SprintSecondsNeverExceedAccrual) {
  const double budget_fraction = GetParam();
  const ExponentialDistribution service(1.0 / 20.0);
  SimConfig config;
  config.arrival_rate_per_second = 0.045;
  config.service = &service;
  config.sprint_speedup = 2.0;
  config.timeout_seconds = 5.0;
  config.budget_refill_seconds = 300.0;
  config.budget_capacity_seconds = budget_fraction * 300.0;
  config.num_queries = 20000;
  config.seed = 23;
  const SimResult result = SimulateQueue(config);
  // Total sprinting cannot exceed initial capacity + refill over the run
  // by more than one query's worth of overdraft.
  const double accrued = config.budget_capacity_seconds +
                         budget_fraction * result.makespan;
  EXPECT_LE(result.total_sprint_seconds, accrued + 60.0)
      << "budget " << budget_fraction;
}

INSTANTIATE_TEST_SUITE_P(Fractions, BudgetSweepTest,
                         ::testing::Values(0.05, 0.2, 0.5, 0.8));

// ------------------------------------------------------ quantile selection

// The type-7 quantile read from a fully sorted copy: the reference that
// Quantile's selection of two order statistics must reproduce.
double SortedQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

// Samples of every size from 1 to 1,000 in four shapes: continuous,
// duplicate-heavy, with infinities of both signs, and mixed -0.0/+0.0.
// std::sort leaves the order of -0.0 and +0.0 unspecified too, so the
// signed-zero shape compares by value; every other shape compares bits,
// including the NaN an infinite order statistic interpolates to.
TEST(QuantileSelectionTest, MatchesSortBitForBit) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(1717);
  size_t compared = 0;
  for (size_t n = 1; n <= 1000; ++n) {
    for (int shape = 0; shape < 4; ++shape) {
      std::vector<double> values(n);
      for (double& v : values) {
        switch (shape) {
          case 0:
            v = 100.0 * rng.NextDouble() - 20.0;
            break;
          case 1:
            v = static_cast<double>(rng.NextBounded(4)) * 0.25;
            break;
          case 2: {
            const uint64_t pick = rng.NextBounded(8);
            v = pick == 0 ? kInf : pick == 1 ? -kInf : rng.NextDouble();
            break;
          }
          default:
            v = rng.NextBounded(2) == 0 ? -0.0 : 0.0;
            if (rng.NextBounded(4) == 0) {
              v = rng.NextDouble() - 0.5;
            }
            break;
        }
      }
      for (const double q : {0.0, 0.5, 1.0, rng.NextDouble(),
                             rng.NextDouble()}) {
        const double got = Quantile(values, q);
        const double want = SortedQuantile(values, q);
        if (shape == 3) {
          ASSERT_EQ(got, want) << "n " << n << " q " << q;
        } else {
          ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
              << "n " << n << " shape " << shape << " q " << q << ": " << got
              << " vs " << want;
        }
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 1000u * 4u * 5u);
}

}  // namespace
}  // namespace msprint
