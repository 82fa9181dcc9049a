#include "src/core/effective_rate.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/common/thread_pool.h"

namespace msprint {

SimConfig BuildSimConfig(const WorkloadProfile& profile,
                         const ModelInput& input,
                         const Distribution& service, double speedup,
                         size_t num_queries, size_t warmup, uint64_t seed) {
  SimConfig config;
  config.arrival_rate_per_second =
      input.utilization * profile.service_rate_per_second;
  config.arrival_kind = input.arrival_kind;
  config.service = &service;
  config.sprint_speedup = std::max(0.05, speedup);
  config.timeout_seconds = input.timeout_seconds;
  config.budget_capacity_seconds =
      input.budget_fraction * input.refill_seconds;
  config.budget_refill_seconds = input.refill_seconds;
  config.slots = 1;
  config.num_queries = num_queries;
  config.warmup_queries = warmup;
  config.seed = seed;
  return config;
}

namespace {

// Replication `rep`'s configuration: the seed depends on the replication
// index only (common random numbers).
SimConfig ReplicationConfig(const WorkloadProfile& profile,
                            const ModelInput& input,
                            const Distribution& service, double speedup,
                            const PredictionSimConfig& sim, size_t rep) {
  return BuildSimConfig(profile, input, service, speedup, sim.num_queries,
                        sim.warmup, DeriveSeed(sim.seed, rep));
}

// Runs `run(r)` for every replication r on the shared pool and merges the
// slots in index order: the means into one StreamingStats, or the
// response times into one concatenation for the quantile. A slot keeps
// only what its merge reads.
double MeanOfReplications(size_t replications,
                          const std::function<SimResult(size_t)>& run) {
  std::vector<double> means(replications);
  ThreadPool::Global().ParallelFor(replications, [&](size_t r) {
    means[r] = run(r).mean_response_time;
  });
  StreamingStats stats;
  for (double mean : means) {
    stats.Add(mean);
  }
  return stats.mean();
}

double PooledPercentile(size_t replications,
                        const std::function<SimResult(size_t)>& run,
                        double quantile) {
  std::vector<std::vector<double>> times(replications);
  ThreadPool::Global().ParallelFor(replications, [&](size_t r) {
    times[r] = std::move(run(r).response_times);
  });
  std::vector<double> pooled;
  for (const std::vector<double>& replication : times) {
    pooled.insert(pooled.end(), replication.begin(), replication.end());
  }
  return Quantile(std::move(pooled), quantile);
}

PredictionSimConfig SimSettings(const CalibrationConfig& config) {
  return {config.sim_queries, config.sim_warmup, config.sim_replications,
          config.seed};
}

}  // namespace

double SimulatedResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input,
                             const Distribution& service, double speedup,
                             const PredictionSimConfig& sim) {
  return MeanOfReplications(sim.replications, [&](size_t r) {
    return SimulateQueue(
        ReplicationConfig(profile, input, service, speedup, sim, r));
  });
}

double SimulatedPercentile(const WorkloadProfile& profile,
                           const ModelInput& input,
                           const Distribution& service, double speedup,
                           const PredictionSimConfig& sim, double quantile) {
  return PooledPercentile(
      sim.replications,
      [&](size_t r) {
        return SimulateQueue(
            ReplicationConfig(profile, input, service, speedup, sim, r));
      },
      quantile);
}

double SimulatedResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input,
                             const Distribution& service, double speedup,
                             const CalibrationConfig& config) {
  return SimulatedResponseTime(profile, input, service, speedup,
                               SimSettings(config));
}

void CheckSameConditions(const ModelInput& base, const ModelInput& input) {
  if (input.utilization != base.utilization ||
      input.arrival_kind != base.arrival_kind) {
    throw std::invalid_argument(
        "the input changes the prepared utilization or arrival kind");
  }
}

SimReplications::SimReplications(const WorkloadProfile& profile,
                                 const ModelInput& base,
                                 const Distribution& service,
                                 const PredictionSimConfig& sim)
    : profile_(&profile), service_(&service), base_(base), sim_(sim) {
  Draw();
}

SimReplications::SimReplications(const WorkloadProfile& profile,
                                 const ModelInput& base,
                                 const PredictionSimConfig& sim)
    : profile_(&profile),
      owned_service_(std::make_unique<const EmpiricalDistribution>(
          profile.service_time_samples)),
      service_(owned_service_.get()),
      base_(base),
      sim_(sim) {
  Draw();
}

void SimReplications::Draw() {
  // The draws never depend on the speedup; any value serves.
  draws_.resize(sim_.replications);
  ThreadPool::Global().ParallelFor(draws_.size(), [&](size_t r) {
    draws_[r] = DrawSimQueries(
        ReplicationConfig(*profile_, base_, *service_, 1.0, sim_, r));
  });
}

double SimReplications::MeanResponseTime(const ModelInput& input,
                                         double speedup) const {
  CheckSameConditions(base_, input);
  return MeanOfReplications(draws_.size(), [&](size_t r) {
    return SimulateQueue(
        ReplicationConfig(*profile_, input, *service_, speedup, sim_, r),
        draws_[r]);
  });
}

double CalibrateEffectiveSpeedup(const WorkloadProfile& profile,
                                 const ProfileRow& row,
                                 const Distribution& service,
                                 const CalibrationConfig& config) {
  const ModelInput input = ModelInput::FromRow(row);
  const double observed = row.observed_mean_response_time;
  if (!(observed > 0.0)) {
    // The relative error below divides by it; a zero or negative mean
    // would silently clamp the row to a search bound.
    throw std::invalid_argument(
        "CalibrateEffectiveSpeedup: observed mean response time must be "
        "positive");
  }
  const double marginal = std::max(1.0, profile.MarginalSpeedup());
  // One draw per row serves every speedup the search evaluates.
  const SimReplications replications(profile, input, service,
                                     SimSettings(config));

  auto error_at = [&](double speedup) {
    const double rt = replications.MeanResponseTime(input, speedup);
    return (rt - observed) / observed;  // >0: sim too slow -> raise speedup
  };

  // Equation 2 prefers the smallest change from mu_m: accept the marginal
  // rate outright when it is already within tolerance.
  const double err_marginal = error_at(marginal);
  if (std::abs(err_marginal) <= config.tolerance) {
    return marginal;
  }

  double lo = config.min_speedup;
  double hi = marginal * config.max_speedup_factor;
  // Response time decreases in speedup. err(lo) should be >= 0 (sim slow
  // or equal) and err(hi) <= 0; clamp when the observed value is outside
  // the achievable range.
  const double err_lo = error_at(lo);
  if (err_lo <= 0.0) {
    // Even with no sprinting the simulator is slower than the observation;
    // the closest admissible speedup is the lower bound.
    return lo;
  }
  const double err_hi = error_at(hi);
  if (err_hi >= 0.0) {
    return hi;
  }

  for (size_t iter = 0; iter < config.bisection_iterations; ++iter) {
    const double mid = 0.5 * (lo + hi);
    const double err = error_at(mid);
    if (std::abs(err) <= config.tolerance) {
      return mid;
    }
    if (err > 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

size_t CalibrateProfile(WorkloadProfile& profile,
                        const CalibrationConfig& config, ThreadPool* pool) {
  const EmpiricalDistribution service(profile.service_time_samples);
  ResolvePool(pool).ParallelFor(profile.rows.size(), [&](size_t i) {
    profile.rows[i].effective_speedup =
        CalibrateEffectiveSpeedup(profile, profile.rows[i], service, config);
  });
  return profile.rows.size();
}

}  // namespace msprint
