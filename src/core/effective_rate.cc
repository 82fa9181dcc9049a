#include "src/core/effective_rate.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
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

// Replication `rep`'s simulation at `speedup`. Common random numbers: the
// seed depends only on the replication index, so the response-time curve
// is monotone in the speedup rather than jittered by resampling.
SimConfig ReplicationConfig(const WorkloadProfile& profile,
                            const ModelInput& input,
                            const Distribution& service, double speedup,
                            const CalibrationConfig& config, size_t rep) {
  return BuildSimConfig(profile, input, service, speedup, config.sim_queries,
                        config.sim_warmup, DeriveSeed(config.seed, rep));
}

// Every replication's draws. They do not depend on the speedup, so one
// draw per replication serves every speedup a row evaluates.
std::vector<SimDraws> DrawReplications(const WorkloadProfile& profile,
                                       const ModelInput& input,
                                       const Distribution& service,
                                       const CalibrationConfig& config) {
  std::vector<SimDraws> draws;
  draws.reserve(config.sim_replications);
  for (size_t rep = 0; rep < config.sim_replications; ++rep) {
    draws.push_back(DrawSimQueries(
        ReplicationConfig(profile, input, service, 1.0, config, rep)));
  }
  return draws;
}

// Mean simulated response time at `speedup`, replaying `draws`.
double ReplayedResponseTime(const WorkloadProfile& profile,
                            const ModelInput& input,
                            const Distribution& service, double speedup,
                            const CalibrationConfig& config,
                            const std::vector<SimDraws>& draws) {
  StreamingStats stats;
  for (size_t rep = 0; rep < draws.size(); ++rep) {
    const SimConfig sim =
        ReplicationConfig(profile, input, service, speedup, config, rep);
    stats.Add(SimulateQueue(sim, draws[rep]).mean_response_time);
  }
  return stats.mean();
}

}  // namespace

double SimulatedResponseTime(const WorkloadProfile& profile,
                             const ModelInput& input,
                             const Distribution& service, double speedup,
                             const CalibrationConfig& config) {
  return ReplayedResponseTime(profile, input, service, speedup, config,
                              DrawReplications(profile, input, service,
                                               config));
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
  const std::vector<SimDraws> draws =
      DrawReplications(profile, input, service, config);

  auto error_at = [&](double speedup) {
    const double rt = ReplayedResponseTime(profile, input, service, speedup,
                                           config, draws);
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
