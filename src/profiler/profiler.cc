#include "src/profiler/profiler.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "src/common/thread_pool.h"

namespace msprint {

namespace {

// Expands the centroid grid into concrete (conditions, policy) points.
struct GridPoint {
  double utilization;
  DistributionKind arrival_kind;
  double timeout_seconds;
  double refill_seconds;
  double budget_fraction;
};

std::vector<GridPoint> ExpandGrid(const ProfilingCentroids& centroids) {
  std::vector<GridPoint> grid;
  grid.reserve(centroids.GridSize());
  for (double util : centroids.utilizations) {
    for (DistributionKind kind : centroids.arrival_kinds) {
      for (double timeout : centroids.timeouts_seconds) {
        for (double refill : centroids.refill_seconds) {
          for (double budget : centroids.budget_fractions) {
            grid.push_back({util, kind, timeout, refill, budget});
          }
        }
      }
    }
  }
  return grid;
}

}  // namespace

WorkloadProfile ProfileWorkload(const QueryMix& mix,
                                const SprintPolicy& platform,
                                const ProfilerConfig& config) {
  // Every run must leave post-warmup queries to measure, and every grid
  // point at least one run; otherwise the rates and medians below have no
  // sample. Reject such configs before running anything.
  if (config.warmup_queries >= config.queries_per_run) {
    throw std::invalid_argument(
        "ProfilerConfig: warmup_queries must be below queries_per_run");
  }
  if (config.replications_per_point == 0) {
    throw std::invalid_argument(
        "ProfilerConfig: replications_per_point must be positive");
  }
  WorkloadProfile profile;
  profile.mix = mix;
  profile.platform = platform;

  // --- Baseline run: sustained-only execution gives mu and the service
  // time samples the simulator resamples.
  {
    TestbedConfig baseline;
    baseline.mix = mix;
    baseline.policy = platform;
    baseline.utilization = 0.5;
    baseline.num_queries = std::max<size_t>(config.queries_per_run, 2000);
    baseline.warmup_queries = config.warmup_queries;
    baseline.seed = DeriveSeed(config.seed, 0xBA5E);
    baseline.disable_sprinting = true;
    const RunTrace trace = Testbed::Run(baseline);
    profile.service_rate_per_second =
        1.0 / trace.mean_unsprinted_processing_time;
    profile.service_time_samples.reserve(trace.queries.size());
    for (const auto& q : trace.queries) {
      profile.service_time_samples.push_back(q.ProcessingTime());
    }
    profile.total_profiling_hours += trace.makespan / kSecondsPerHour;
  }

  // --- Full-sprint run: every execution sprints end to end, giving mu_m.
  {
    TestbedConfig full;
    full.mix = mix;
    full.policy = platform;
    full.utilization = 0.5;
    full.num_queries = config.queries_per_run;
    full.warmup_queries = config.warmup_queries;
    full.seed = DeriveSeed(config.seed, 0xF011);
    full.force_full_sprint = true;
    const RunTrace trace = Testbed::Run(full);
    profile.marginal_rate_per_second = 1.0 / trace.mean_processing_time;
    profile.total_profiling_hours += trace.makespan / kSecondsPerHour;
  }

  // --- Grid runs.
  std::vector<GridPoint> grid = ExpandGrid(config.centroids);
  if (config.sample_grid_points > 0 &&
      config.sample_grid_points < grid.size()) {
    Rng rng(DeriveSeed(config.seed, 0x981D));
    for (size_t i = grid.size(); i > 1; --i) {
      std::swap(grid[i - 1], grid[rng.NextBounded(i)]);
    }
    grid.resize(config.sample_grid_points);
  }

  profile.rows.assign(grid.size(), ProfileRow{});
  auto run_point = [&](size_t i) {
    const GridPoint& point = grid[i];
    ProfileRow row;
    row.utilization = point.utilization;
    row.arrival_kind = point.arrival_kind;
    row.timeout_seconds = point.timeout_seconds;
    row.refill_seconds = point.refill_seconds;
    row.budget_fraction = point.budget_fraction;

    StreamingStats mean_rt;
    std::vector<double> medians;
    StreamingStats sprinted;
    StreamingStats timed_out;
    // High-utilization points have far noisier run means (queueing time
    // dominates); replay them more, as the paper's profiler replays the
    // mix "many times".
    const size_t replications =
        config.replications_per_point *
        (point.utilization >= 0.9 ? 4 : point.utilization >= 0.7 ? 2 : 1);
    for (size_t rep = 0; rep < replications; ++rep) {
      TestbedConfig run;
      run.mix = mix;
      run.policy = platform;
      run.policy.timeout_seconds = point.timeout_seconds;
      run.policy.refill_seconds = point.refill_seconds;
      run.policy.budget_fraction = point.budget_fraction;
      run.utilization = point.utilization;
      run.arrival_kind = point.arrival_kind;
      run.num_queries = config.queries_per_run;
      run.warmup_queries = config.warmup_queries;
      run.seed = DeriveSeed(config.seed, i * 131 + rep + 1);
      const RunTrace trace = Testbed::Run(run);
      mean_rt.Add(trace.mean_response_time);
      medians.push_back(trace.MedianResponseTime());
      sprinted.Add(trace.fraction_sprinted);
      timed_out.Add(trace.fraction_timed_out);
      row.run_virtual_seconds += trace.makespan;
    }
    row.observed_mean_response_time = mean_rt.mean();
    row.observed_median_response_time = Median(medians);
    row.fraction_sprinted = sprinted.mean();
    row.fraction_timed_out = timed_out.mean();
    profile.rows[i] = row;
  };

  if (config.pool_size == 1) {
    for (size_t i = 0; i < grid.size(); ++i) {
      run_point(i);
    }
  } else {
    ThreadPool::Global().ParallelFor(grid.size(), run_point);
  }

  for (const auto& row : profile.rows) {
    profile.total_profiling_hours += row.run_virtual_seconds / kSecondsPerHour;
  }
  return profile;
}

}  // namespace msprint
