// Workload profiler (Section 2.1 / Figure 3).
//
// The profiler replays a representative workload mix on the ground-truth
// testbed many times, varying arrival patterns and sprinting policies over
// the paper's cluster-sampling centroids, and keeps what a profile row
// reads of each run: the mean and median response time, the fractions
// sprinted and timed out, and the makespan. Grid runs therefore call
// Testbed::Summarize, which builds nothing else; the two rate runs below
// read per-query processing times, so they call Testbed::Run. It also
// measures the two rates that parameterize the downstream models:
//   - service rate mu      : inverse mean processing time of executions
//                            that never sprint;
//   - marginal sprint rate : inverse mean processing time when the whole
//     mu_m                   execution is sprinted (timeout fires before
//                            dispatch).

#ifndef MSPRINT_SRC_PROFILER_PROFILER_H_
#define MSPRINT_SRC_PROFILER_PROFILER_H_

#include <cstdint>
#include <vector>

#include "src/testbed/testbed.h"

namespace msprint {

// Cluster-sampling centroids (Section 3's list). Values are crossed to form
// the sampled policy/condition grid.
struct ProfilingCentroids {
  std::vector<double> utilizations = {0.30, 0.50, 0.75, 0.95};
  std::vector<DistributionKind> arrival_kinds = {
      DistributionKind::kExponential, DistributionKind::kPareto};
  std::vector<double> timeouts_seconds = {50, 60, 70, 80, 120, 130, 160};
  std::vector<double> refill_seconds = {50, 200, 500, 800, 1000};
  std::vector<double> budget_fractions = {0.14, 0.16, 0.18,  0.20,
                                          0.40, 0.60, 0.80};

  size_t GridSize() const {
    return utilizations.size() * arrival_kinds.size() *
           timeouts_seconds.size() * refill_seconds.size() *
           budget_fractions.size();
  }
};

// One profiled (conditions, policy) -> observation record. These rows are
// both the ML training data and the ground truth that predictions are
// scored against.
struct ProfileRow {
  // Conditions and policy (the predictive features F).
  double utilization = 0.0;
  DistributionKind arrival_kind = DistributionKind::kExponential;
  double timeout_seconds = 0.0;
  double refill_seconds = 0.0;
  double budget_fraction = 0.0;

  // Observations from the testbed.
  double observed_mean_response_time = 0.0;
  double observed_median_response_time = 0.0;
  double fraction_sprinted = 0.0;
  double fraction_timed_out = 0.0;
  double run_virtual_seconds = 0.0;  // testbed makespan (profiling cost)

  // Filled in by the effective-rate calibration (src/core).
  double effective_speedup = 1.0;  // mu_e / mu
};

// Everything the profiler learned about one workload mix on one platform.
struct WorkloadProfile {
  QueryMix mix = QueryMix::Single(WorkloadId::kJacobi);
  SprintPolicy platform;  // carries the mechanism & throttle settings

  double service_rate_per_second = 0.0;   // mu
  double marginal_rate_per_second = 0.0;  // mu_m
  double MarginalSpeedup() const {
    return marginal_rate_per_second / service_rate_per_second;
  }

  // Unsprinted processing-time samples; the predictive simulator resamples
  // these (Section 2.2).
  std::vector<double> service_time_samples;

  std::vector<ProfileRow> rows;

  // Total virtual hours the profiling runs took — the opportunity cost of
  // training used in the Fig 14 amortization study.
  double total_profiling_hours = 0.0;
};

struct ProfilerConfig {
  ProfilingCentroids centroids;
  // Number of grid points to sample (0 = full grid). The paper samples a
  // subset of the grid per workload; benches default to a few hundred.
  size_t sample_grid_points = 280;
  size_t queries_per_run = 10000;
  size_t warmup_queries = 1000;
  size_t replications_per_point = 3;
  uint64_t seed = 42;
  // Grid points run on the shared global pool (see ThreadPool::Global)
  // unless this is 1, which forces a serial sweep. Each point writes only
  // its own row, so the profile is identical either way.
  size_t pool_size = 0;
};

// Profiles `mix` on the platform selected by `platform` (the policy's
// timeout/budget fields are ignored; the grid supplies those). Throws
// std::invalid_argument, before any run, when warmup_queries is not below
// queries_per_run or replications_per_point is 0.
WorkloadProfile ProfileWorkload(const QueryMix& mix,
                                const SprintPolicy& platform,
                                const ProfilerConfig& config);

}  // namespace msprint

#endif  // MSPRINT_SRC_PROFILER_PROFILER_H_
